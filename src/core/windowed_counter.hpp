/**
 * @file
 * Sliding-window miss counters (Section 3.3).
 *
 * "Logically, the IMCT and MCT track the number of misses over the past
 * W time units. However, since keeping miss counts for every time slice
 * is impractical, we discretize the time window into k subwindows of
 * W/k hours each. The implementation uses k counters to track the
 * misses in each subwindow and a counter to track the last time the
 * counters were updated. If during a miss, the current time window is
 * larger than the last-updated counter by k or more, then all counters
 * are inferred to be stale and zeroed out."
 *
 * WindowedCounter is that per-entry state, packed into 8 bytes;
 * WindowSpec carries the (W, k) configuration shared by all entries of
 * a table.
 */

#ifndef SIEVESTORE_CORE_WINDOWED_COUNTER_HPP
#define SIEVESTORE_CORE_WINDOWED_COUNTER_HPP

#include <array>
#include <cstdint>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace core {

/** Maximum supported subwindow count per window: the paper's k = 4. */
constexpr uint32_t kMaxSubwindows = 4;

/**
 * Largest subwindow index a counter can stamp. Stamps are 32 bits;
 * stopping k short of 2^32 - 1 keeps `stamp + k` from wrapping too.
 */
constexpr uint64_t kMaxSubwindowIndex = UINT32_MAX - kMaxSubwindows;

/**
 * Largest miss threshold a windowed counter decides exactly. Each
 * subwindow tally saturates here, and once one live tally saturates
 * the windowed total is already at or above any such threshold.
 */
constexpr uint32_t kMaxMissThreshold = UINT8_MAX;

/** Reject a miss threshold above kMaxMissThreshold (util::fatal). */
inline void
checkMissThreshold(uint64_t threshold, const char *what)
{
    if (threshold > kMaxMissThreshold)
        util::fatal("%s = %llu exceeds %u, where windowed miss counters "
                    "saturate",
                    what, static_cast<unsigned long long>(threshold),
                    kMaxMissThreshold);
}

/** Window configuration: W split into k subwindows. */
struct WindowSpec
{
    /** Length of one subwindow in microseconds (W / k). */
    util::TimeUs subwindow_us = 2 * util::kUsPerHour;
    /** Number of subwindows (the paper tunes k = 4, W = 8 h). */
    uint32_t k = 4;

    /**
     * Subwindow index containing time t. An index past
     * kMaxSubwindowIndex does not fit a counter's stamp and is fatal,
     * never wrapped.
     */
    uint32_t
    subwindowOf(util::TimeUs t) const
    {
        const uint64_t sub = t / subwindow_us;
        if (sub > kMaxSubwindowIndex) [[unlikely]]
            util::fatal("time %llu us falls in subwindow %llu, past the "
                        "counters' 32-bit stamp limit %llu",
                        static_cast<unsigned long long>(t),
                        static_cast<unsigned long long>(sub),
                        static_cast<unsigned long long>(
                            kMaxSubwindowIndex));
        return static_cast<uint32_t>(sub);
    }

    /**
     * Reject a spec no counter can run (util::fatal): k outside
     * [1, kMaxSubwindows], or a zero-length subwindow.
     */
    void
    validate() const
    {
        if (k == 0 || k > kMaxSubwindows)
            util::fatal("window subwindow count k = %u must be in "
                        "[1, %u]",
                        k, kMaxSubwindows);
        if (subwindow_us == 0)
            util::fatal("window subwindow length must be positive");
    }

    /** The paper's tuned configuration: W = 8 h, k = 4. */
    static WindowSpec
    paperDefault()
    {
        return WindowSpec{2 * util::kUsPerHour, 4};
    }

    /** Arbitrary window length with the default k = 4. */
    static WindowSpec
    ofWindow(util::TimeUs window_us, uint32_t k = 4)
    {
        const WindowSpec spec{k == 0 ? 0 : window_us / k, k};
        spec.validate();
        return spec;
    }
};

/**
 * Per-entry sliding-window counter in 8 bytes: k saturating 8-bit
 * subwindow tallies plus the last-updated subwindow index as a 32-bit
 * stamp.
 *
 * Saturation changes no decision. Every threshold a counter is
 * compared against is at most kMaxMissThreshold (checkMissThreshold
 * at construction), and once a live tally saturates the total is
 * already at or above it. A recorded miss still counts at least 1.
 */
class WindowedCounter
{
  public:
    /**
     * Expire stale subwindows as of `cur_sub`, then record one miss.
     * @return the windowed total including this miss
     */
    uint32_t
    record(uint32_t cur_sub, const WindowSpec &spec)
    {
        advance(cur_sub, spec);
        auto &slot = counts[cur_sub % spec.k];
        if (slot < kMaxMissThreshold)
            ++slot;
        return total(cur_sub, spec);
    }

    /** Windowed total as of `cur_sub` (expiry-aware, no mutation). */
    uint32_t
    total(uint32_t cur_sub, const WindowSpec &spec) const
    {
        if (cur_sub >= last_sub + spec.k)
            return 0;
        uint32_t sum = 0;
        // Only subwindows in (cur_sub - k, last_sub] are live.
        for (uint32_t i = 0; i < spec.k; ++i) {
            const uint32_t sub = last_sub - i;
            if (sub + spec.k > cur_sub)
                sum += counts[sub % spec.k];
            if (sub == 0)
                break;
        }
        return sum;
    }

    /** True if every subwindow has expired as of `cur_sub`. */
    bool
    stale(uint32_t cur_sub, const WindowSpec &spec) const
    {
        return cur_sub >= last_sub + spec.k;
    }

    /**
     * Mark the counter live as of `cur_sub` without recording a miss
     * (expires aged subwindows). Used at MCT admission so a
     * freshly-admitted block is not mistaken for stale before its
     * first second-tier miss.
     */
    void
    touch(uint32_t cur_sub, const WindowSpec &spec)
    {
        advance(cur_sub, spec);
    }

    /** Zero all state. */
    void
    clear()
    {
        counts.fill(0);
        last_sub = 0;
    }

    /**
     * Audit the counter's structural invariants against `spec`:
     * only the first k subwindow slots may ever hold counts (record()
     * and advance() index modulo k), the stamp leaves headroom for
     * `stamp + k`, and the expiry-aware total can never exceed what k
     * saturated subwindows could hold. Aborts via SIEVE_CHECK on
     * violation.
     */
    void
    checkInvariants(const WindowSpec &spec) const
    {
        SIEVE_CHECK(spec.k >= 1 && spec.k <= kMaxSubwindows,
                    "window spec k=%u out of range", spec.k);
        SIEVE_CHECK(spec.subwindow_us > 0);
        SIEVE_CHECK(last_sub <= kMaxSubwindowIndex,
                    "counter stamp %u past the subwindow limit",
                    last_sub);
        for (uint32_t i = spec.k; i < kMaxSubwindows; ++i)
            SIEVE_CHECK(counts[i] == 0,
                        "subwindow slot %u beyond k=%u holds count %u",
                        i, spec.k, counts[i]);
        SIEVE_CHECK(total(last_sub, spec) <= spec.k * kMaxMissThreshold);
        // A counter that reports stale must also report a zero total.
        if (stale(last_sub + spec.k, spec))
            SIEVE_CHECK(total(last_sub + spec.k, spec) == 0);
    }

  private:
    void
    advance(uint32_t cur_sub, const WindowSpec &spec)
    {
        SIEVE_DCHECK(cur_sub <= kMaxSubwindowIndex);
        if (cur_sub < last_sub) {
            // Out-of-order timestamps can occur when completion-time
            // allocations interleave with issue-time misses; clamp to
            // the newest subwindow seen.
            return;
        }
        if (cur_sub >= last_sub + spec.k) {
            counts.fill(0);
        } else {
            for (uint32_t s = last_sub + 1; s <= cur_sub; ++s)
                counts[s % spec.k] = 0;
        }
        last_sub = cur_sub;
    }

    std::array<uint8_t, kMaxSubwindows> counts{};
    uint32_t last_sub = 0;
};

static_assert(sizeof(WindowedCounter) == 8,
              "WindowedCounter must pack into 8 bytes");

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_WINDOWED_COUNTER_HPP

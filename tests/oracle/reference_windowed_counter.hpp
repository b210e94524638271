/**
 * @file
 * Reference sliding-window miss counter: the unpacked 24-byte layout
 * (eight 16-bit subwindow tallies and a 64-bit last-updated
 * subwindow index) that core::WindowedCounter packed into 8 bytes.
 *
 * Kept only as the oracle the packed counter is differenced against,
 * op for op. Its tallies saturate at 65535 rather than 255 and it
 * accepts k up to 8, so the two agree on every total while no live
 * tally passes 255, and on `total >= t` for every t <= 255 always.
 */

#ifndef SIEVESTORE_TESTS_ORACLE_REFERENCE_WINDOWED_COUNTER_HPP
#define SIEVESTORE_TESTS_ORACLE_REFERENCE_WINDOWED_COUNTER_HPP

#include <array>
#include <cstdint>

#include "core/windowed_counter.hpp"
#include "util/check.hpp"

namespace sievestore {
namespace oracle {

/** Maximum subwindow count the reference layout holds. */
constexpr uint32_t kReferenceMaxSubwindows = 8;

/**
 * Per-entry sliding-window counter: k saturating subwindow tallies plus
 * the last-updated subwindow index. 24 bytes per entry for any k.
 */
class ReferenceWindowedCounter
{
  public:
    /**
     * Expire stale subwindows as of `cur_sub`, then record one miss.
     * @return the windowed total including this miss
     */
    uint32_t
    record(uint64_t cur_sub, const core::WindowSpec &spec)
    {
        advance(cur_sub, spec);
        auto &slot = counts[cur_sub % spec.k];
        if (slot < UINT16_MAX)
            ++slot;
        return total(cur_sub, spec);
    }

    /** Windowed total as of `cur_sub` (expiry-aware, no mutation). */
    uint32_t
    total(uint64_t cur_sub, const core::WindowSpec &spec) const
    {
        if (cur_sub >= last_sub + spec.k)
            return 0;
        uint32_t sum = 0;
        // Only subwindows in (cur_sub - k, last_sub] are live.
        for (uint32_t i = 0; i < spec.k; ++i) {
            const uint64_t sub = last_sub - i;
            if (sub + spec.k > cur_sub)
                sum += counts[sub % spec.k];
            if (sub == 0)
                break;
        }
        return sum;
    }

    /**
     * Largest live tally as of `cur_sub` (0 once stale). Not part of
     * the counter's contract: the differential uses it to tell when
     * the packed counter's 8-bit tallies have saturated.
     */
    uint32_t
    maxLiveTally(uint64_t cur_sub, const core::WindowSpec &spec) const
    {
        if (cur_sub >= last_sub + spec.k)
            return 0;
        uint32_t most = 0;
        for (uint32_t i = 0; i < spec.k; ++i) {
            const uint64_t sub = last_sub - i;
            if (sub + spec.k > cur_sub && counts[sub % spec.k] > most)
                most = counts[sub % spec.k];
            if (sub == 0)
                break;
        }
        return most;
    }

    /** True if every subwindow has expired as of `cur_sub`. */
    bool
    stale(uint64_t cur_sub, const core::WindowSpec &spec) const
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
    touch(uint64_t cur_sub, const core::WindowSpec &spec)
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
     * and advance() index modulo k), and the expiry-aware total can
     * never exceed what k saturated subwindows could hold. Aborts via
     * SIEVE_CHECK on violation.
     */
    void
    checkInvariants(const core::WindowSpec &spec) const
    {
        SIEVE_CHECK(spec.k >= 1 && spec.k <= kReferenceMaxSubwindows,
                    "window spec k=%u out of range", spec.k);
        SIEVE_CHECK(spec.subwindow_us > 0);
        for (uint32_t i = spec.k; i < kReferenceMaxSubwindows; ++i)
            SIEVE_CHECK(counts[i] == 0,
                        "subwindow slot %u beyond k=%u holds count %u",
                        i, spec.k, counts[i]);
        const uint64_t max_total =
            static_cast<uint64_t>(spec.k) * UINT16_MAX;
        SIEVE_CHECK(total(last_sub, spec) <= max_total);
        // A counter that reports stale must also report a zero total.
        if (stale(last_sub + spec.k, spec))
            SIEVE_CHECK(total(last_sub + spec.k, spec) == 0);
    }

  private:
    void
    advance(uint64_t cur_sub, const core::WindowSpec &spec)
    {
        if (cur_sub < last_sub) {
            // Out-of-order timestamps can occur when completion-time
            // allocations interleave with issue-time misses; clamp to
            // the newest subwindow seen.
            return;
        }
        if (cur_sub >= last_sub + spec.k) {
            counts.fill(0);
        } else {
            for (uint64_t s = last_sub + 1; s <= cur_sub; ++s)
                counts[s % spec.k] = 0;
        }
        last_sub = cur_sub;
    }

    std::array<uint16_t, kReferenceMaxSubwindows> counts{};
    uint64_t last_sub = 0;
};

} // namespace oracle
} // namespace sievestore

#endif // SIEVESTORE_TESTS_ORACLE_REFERENCE_WINDOWED_COUNTER_HPP

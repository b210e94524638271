/**
 * @file
 * Differential test: the packed 8-byte core::WindowedCounter against
 * the unpacked 24-byte reference counter (tests/oracle/), op for op.
 *
 * Random streams of record / total / stale / touch / clear run on both
 * counters for k = 1..4. They cover gaps of k or more subwindows,
 * backward subwindow steps (the out-of-order clamp), bursts of more
 * than 255 misses inside one subwindow, and stamps at the top of the
 * 32-bit range. At every step:
 *
 * - stale() agrees;
 * - totals (and record()'s return) are equal while no live reference
 *   tally exceeds 255, where the packed tallies saturate;
 * - `total >= t` agrees for every t <= kMaxMissThreshold, which is
 *   every threshold the sieves accept, so no decision can differ;
 * - a recorded miss counts at least 1 on the packed side
 *   (Mct::recordIfTracked's "0 = untracked" contract).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/windowed_counter.hpp"
#include "oracle/reference_windowed_counter.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::core;
using sievestore::oracle::ReferenceWindowedCounter;
using sievestore::util::Rng;

/** Both counters, driven together. */
class CounterPair
{
  public:
    explicit CounterPair(WindowSpec spec) : spec_(spec) {}

    /** Record one miss on both and compare what each returns. */
    void
    record(uint32_t sub)
    {
        const uint32_t packed = packed_.record(sub, spec_);
        const uint32_t ref = ref_.record(sub, spec_);
        ASSERT_GE(packed, 1u) << "a recorded miss must count";
        compareTotals(packed, ref, sub);
    }

    void
    touch(uint32_t sub)
    {
        packed_.touch(sub, spec_);
        ref_.touch(sub, spec_);
    }

    void
    clear()
    {
        packed_.clear();
        ref_.clear();
    }

    /** Compare every read-only view as of `sub`, and the verdict at
     * each threshold one by one. */
    void
    query(uint32_t sub)
    {
        ASSERT_EQ(packed_.stale(sub, spec_), ref_.stale(sub, spec_))
            << "stale() at subwindow " << sub;
        const uint32_t packed = packed_.total(sub, spec_);
        const uint32_t ref = ref_.total(sub, spec_);
        compareTotals(packed, ref, sub);
        for (uint32_t t = 0; t <= kMaxMissThreshold; ++t)
            ASSERT_EQ(packed >= t, ref >= t)
                << "threshold " << t << " at subwindow " << sub
                << ": packed " << packed << ", reference " << ref;
    }

    void
    checkInvariants() const
    {
        packed_.checkInvariants(spec_);
    }

    /** Times totals were compared after a tally saturated. */
    uint64_t saturatedCompares() const { return saturated_; }

  private:
    void
    compareTotals(uint32_t packed, uint32_t ref, uint32_t sub)
    {
        if (ref_.maxLiveTally(sub, spec_) <= kMaxMissThreshold) {
            ASSERT_EQ(packed, ref) << "total at subwindow " << sub;
        } else {
            ++saturated_;
            ASSERT_GE(packed, kMaxMissThreshold)
                << "a saturated live tally must leave the total at "
                   "the saturation point, subwindow "
                << sub;
        }
        // Equal once capped at kMaxMissThreshold is the same as
        // agreeing on `total >= t` for every t <= kMaxMissThreshold;
        // query() also checks each t on its own.
        ASSERT_EQ(std::min(packed, kMaxMissThreshold),
                  std::min(ref, kMaxMissThreshold))
            << "capped totals at subwindow " << sub << ": packed "
            << packed << ", reference " << ref;
    }

    WindowSpec spec_;
    WindowedCounter packed_;
    ReferenceWindowedCounter ref_;
    uint64_t saturated_ = 0;
};

/**
 * Drive one pair through `steps` random operations starting at
 * subwindow `base`; subwindows stay in [0, kMaxSubwindowIndex].
 */
uint64_t
runStream(uint32_t k, uint64_t seed, uint32_t base, int steps)
{
    WindowSpec spec;
    spec.k = k;
    spec.subwindow_us = 1000;
    CounterPair pair(spec);
    Rng rng(seed);
    uint32_t cur = base;
    const auto clampSub = [&](int64_t s) {
        if (s < 0)
            return uint32_t{0};
        if (s > static_cast<int64_t>(kMaxSubwindowIndex))
            return static_cast<uint32_t>(kMaxSubwindowIndex);
        return static_cast<uint32_t>(s);
    };
    for (int step = 0; step < steps; ++step) {
        const uint64_t op = rng.nextBelow(100);
        if (op < 40) {
            pair.record(cur);
        } else if (op < 43) {
            // A burst past the 8-bit saturation point in one subwindow.
            const uint64_t n = rng.nextInRange(200, 600);
            for (uint64_t i = 0; i < n; ++i) {
                pair.record(cur);
                if (::testing::Test::HasFatalFailure())
                    return 0;
            }
        } else if (op < 63) {
            // Small forward steps, within the window.
            cur = clampSub(int64_t{cur} +
                           static_cast<int64_t>(rng.nextBelow(k)));
        } else if (op < 70) {
            // A gap of k or more: everything expires.
            cur = clampSub(int64_t{cur} +
                           static_cast<int64_t>(
                               rng.nextInRange(k, 3 * k + 2)));
        } else if (op < 78) {
            // Backward step (completion-time allocations interleaving
            // with issue-time misses), sometimes past the window.
            cur = clampSub(int64_t{cur} -
                           static_cast<int64_t>(
                               rng.nextInRange(1, k + 2)));
        } else if (op < 85) {
            pair.touch(cur);
        } else if (op < 86) {
            pair.clear();
        } else {
            // Read-only views around the current subwindow.
            const int64_t d = static_cast<int64_t>(
                                  rng.nextBelow(2 * k + 5)) -
                              static_cast<int64_t>(k + 2);
            pair.query(clampSub(int64_t{cur} + d));
        }
        if (::testing::Test::HasFatalFailure())
            return 0;
        pair.query(cur);
        if (::testing::Test::HasFatalFailure())
            return 0;
        pair.checkInvariants();
    }
    return pair.saturatedCompares();
}

class WindowedCounterDifferential
    : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WindowedCounterDifferential, MatchesReferenceOpForOp)
{
    const uint32_t k = GetParam();
    uint64_t saturated = 0;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        // Start at 0, so the `sub == 0` edge of the live scan is hit.
        saturated += runStream(k, seed * 7919 + k, 0, 20000);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(saturated, 0u)
        << "the streams must actually saturate a tally";
}

TEST_P(WindowedCounterDifferential, MatchesReferenceAtTheStampLimit)
{
    // Stamps near 2^32 - 1: `stamp + k` must not wrap on the packed
    // side, where the reference computes in 64 bits.
    const uint32_t k = GetParam();
    const auto base = static_cast<uint32_t>(kMaxSubwindowIndex - 64);
    runStream(k, 0xfeed + k, base, 20000);
}

INSTANTIATE_TEST_SUITE_P(KSweep, WindowedCounterDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace

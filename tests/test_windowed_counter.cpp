/**
 * @file
 * Unit and property tests for the sliding-window miss counter
 * (Section 3.3's k-subwindow scheme).
 */

#include <gtest/gtest.h>

#include "core/windowed_counter.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::core;
using sievestore::util::FatalError;
using sievestore::util::kUsPerHour;
using sievestore::util::Rng;
using sievestore::util::TimeUs;

TEST(WindowSpec, PaperDefault)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    EXPECT_EQ(spec.k, 4u);
    EXPECT_EQ(spec.subwindow_us, 2 * kUsPerHour); // W = 8 h
    EXPECT_EQ(spec.subwindowOf(0), 0u);
    EXPECT_EQ(spec.subwindowOf(2 * kUsPerHour), 1u);
}

TEST(WindowSpec, OfWindowSplitsEvenly)
{
    const WindowSpec spec = WindowSpec::ofWindow(8 * kUsPerHour, 4);
    EXPECT_EQ(spec.subwindow_us, 2 * kUsPerHour);
    EXPECT_THROW(WindowSpec::ofWindow(kUsPerHour, 0),
                 sievestore::util::FatalError);
    EXPECT_THROW(WindowSpec::ofWindow(kUsPerHour, 100),
                 sievestore::util::FatalError);
}

TEST(WindowSpec, RejectsMoreThanFourSubwindows)
{
    // The packed counter holds the paper's k = 4 tallies at most.
    WindowSpec spec;
    spec.subwindow_us = 1000;
    for (uint32_t k = 1; k <= kMaxSubwindows; ++k) {
        spec.k = k;
        EXPECT_NO_THROW(spec.validate());
    }
    spec.k = 8;
    EXPECT_THROW(spec.validate(), FatalError);
    EXPECT_THROW(WindowSpec::ofWindow(8000, 8), FatalError);
}

TEST(WindowSpec, SubwindowIndexMustFitTheStamp)
{
    WindowSpec spec;
    spec.subwindow_us = 1;
    EXPECT_EQ(spec.subwindowOf(kMaxSubwindowIndex), kMaxSubwindowIndex);
    EXPECT_THROW(spec.subwindowOf(kMaxSubwindowIndex + 1), FatalError);
    EXPECT_THROW(spec.subwindowOf(TimeUs{1} << 32), FatalError);
    EXPECT_THROW(spec.subwindowOf(UINT64_MAX), FatalError);
    // At the paper's 2-hour subwindows no 64-bit time reaches the
    // limit.
    EXPECT_LE(WindowSpec::paperDefault().subwindowOf(UINT64_MAX),
              kMaxSubwindowIndex);
}

TEST(WindowedCounter, AccumulatesWithinWindow)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    EXPECT_EQ(c.record(0, spec), 1u);
    EXPECT_EQ(c.record(0, spec), 2u);
    EXPECT_EQ(c.record(1, spec), 3u);
    EXPECT_EQ(c.record(3, spec), 4u);
    EXPECT_EQ(c.total(3, spec), 4u);
}

TEST(WindowedCounter, OldSubwindowsExpire)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(0, spec); // 2 misses in subwindow 0
    c.record(0, spec);
    c.record(1, spec); // 1 miss in subwindow 1
    // At subwindow 4, subwindow 0 has aged out (window covers 1..4).
    EXPECT_EQ(c.total(4, spec), 1u);
    // At subwindow 5, everything has aged out.
    EXPECT_EQ(c.total(5, spec), 0u);
}

TEST(WindowedCounter, GapOfKOrMoreZeroesEverything)
{
    // "If during a miss, the current time window is larger than the
    // last-updated counter by k or more, then all counters are inferred
    // to be stale and zeroed out."
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    for (int i = 0; i < 10; ++i)
        c.record(0, spec);
    EXPECT_EQ(c.record(4, spec), 1u); // fresh start
}

TEST(WindowedCounter, PartialExpiryOnAdvance)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(0, spec);
    c.record(1, spec);
    c.record(2, spec);
    c.record(3, spec);
    // Advancing to 4 must clear only subwindow 0's slot (reused).
    EXPECT_EQ(c.record(4, spec), 4u); // subwindows 1,2,3,4
    EXPECT_EQ(c.record(6, spec), 3u); // subwindows 3,4(1),6(1) -> 1+1+1
}

TEST(WindowedCounter, StaleDetection)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(10, spec);
    EXPECT_FALSE(c.stale(12, spec));
    EXPECT_FALSE(c.stale(13, spec));
    EXPECT_TRUE(c.stale(14, spec));
}

TEST(WindowedCounter, SaturatesAt255)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    for (int i = 0; i < 300; ++i)
        c.record(0, spec);
    EXPECT_EQ(c.total(0, spec), 255u);
    // Each subwindow saturates on its own; the total is their sum.
    for (uint32_t sub = 1; sub < spec.k; ++sub)
        for (int i = 0; i < 300; ++i)
            c.record(sub, spec);
    EXPECT_EQ(c.total(spec.k - 1, spec), spec.k * 255u);
    // A saturated subwindow still expires.
    EXPECT_EQ(c.record(spec.k, spec), (spec.k - 1) * 255u + 1);
}

TEST(WindowedCounter, OutOfOrderTimestampsDoNotRegress)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(5, spec);
    // A slightly-late miss must not clear newer state.
    c.record(4, spec);
    EXPECT_GE(c.total(5, spec), 2u);
}

TEST(WindowedCounter, ClearResets)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    WindowedCounter c;
    c.record(3, spec);
    c.clear();
    EXPECT_EQ(c.total(3, spec), 0u);
}

/**
 * Property: against a brute-force reference that remembers every miss
 * timestamp, the windowed counter is exact at subwindow granularity
 * whenever misses arrive in order.
 */
class WindowedCounterProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WindowedCounterProperty, MatchesBruteForceReference)
{
    const uint32_t k = GetParam();
    WindowSpec spec;
    spec.k = k;
    spec.subwindow_us = 1000;
    WindowedCounter c;
    std::vector<uint32_t> subwindows; // of each recorded miss
    Rng rng(k * 1000 + 7);
    uint32_t sub = 0;
    for (int i = 0; i < 2000; ++i) {
        // Sometimes the same subwindow, sometimes an advance.
        sub += static_cast<uint32_t>(rng.nextBelow(3));
        const uint32_t got = c.record(sub, spec);
        subwindows.push_back(sub);
        uint32_t expect = 0;
        for (uint32_t s : subwindows)
            if (s + k > sub)
                ++expect;
        ASSERT_EQ(got, expect) << "at step " << i << " sub " << sub;
    }
}

INSTANTIATE_TEST_SUITE_P(KSweep, WindowedCounterProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

} // namespace

/**
 * @file
 * Unit tests for the perfect Miss Count Table (second sieve tier).
 */

#include <gtest/gtest.h>

#include "core/mct.hpp"
#include "util/logging.hpp"

namespace {

using namespace sievestore::core;
using sievestore::util::FatalError;
using sievestore::util::TimeUs;

const WindowSpec kSpec = WindowSpec::paperDefault();

TimeUs
sub(uint64_t s)
{
    return s * kSpec.subwindow_us;
}

TEST(Mct, RejectsBadWindow)
{
    WindowSpec k0 = kSpec;
    k0.k = 0;
    EXPECT_THROW(Mct{k0}, FatalError);
    WindowSpec k5 = kSpec;
    k5.k = kMaxSubwindows + 1;
    EXPECT_THROW(Mct{k5}, FatalError);
    WindowSpec no_len = kSpec;
    no_len.subwindow_us = 0;
    EXPECT_THROW(Mct{no_len}, FatalError);
}

TEST(Mct, TracksOnlyAdmittedBlocks)
{
    Mct mct(kSpec);
    EXPECT_FALSE(mct.contains(1));
    EXPECT_EQ(mct.count(1, 0), 0u);
    mct.admit(1, 0);
    EXPECT_TRUE(mct.contains(1));
    // Admission starts at zero: "an additional minimum number of
    // misses" is required at this tier.
    EXPECT_EQ(mct.count(1, 0), 0u);
}

TEST(Mct, CountsAreExactPerBlock)
{
    Mct mct(kSpec);
    mct.admit(1, 0);
    mct.admit(2, 0);
    EXPECT_EQ(mct.recordMiss(1, 0), 1u);
    EXPECT_EQ(mct.recordMiss(1, 0), 2u);
    EXPECT_EQ(mct.recordMiss(2, 0), 1u); // no aliasing, ever
    EXPECT_EQ(mct.count(1, 0), 2u);
}

TEST(Mct, AdmitIsIdempotent)
{
    Mct mct(kSpec);
    mct.admit(7, 0);
    mct.recordMiss(7, 0);
    mct.admit(7, 0); // must not reset the count
    EXPECT_EQ(mct.count(7, 0), 1u);
}

TEST(Mct, RemoveStopsTracking)
{
    Mct mct(kSpec);
    mct.admit(3, 0);
    mct.recordMiss(3, 0);
    mct.remove(3);
    EXPECT_FALSE(mct.contains(3));
    EXPECT_EQ(mct.size(), 0u);
}

TEST(Mct, RecordOnUntrackedPanics)
{
    Mct mct(kSpec);
    EXPECT_DEATH(mct.recordMiss(9, 0), "untracked");
}

TEST(Mct, RecordIfTrackedIsOneProbeRecordMiss)
{
    // Untracked: 0 and no insertion. Tracked: exactly recordMiss's
    // counts, including across a window expiry and a backward step.
    Mct mct(kSpec);
    Mct twin(kSpec);
    EXPECT_EQ(mct.recordIfTracked(5, 0), 0u);
    EXPECT_FALSE(mct.contains(5));
    EXPECT_EQ(mct.size(), 0u);
    mct.admit(5, 0);
    twin.admit(5, 0);
    for (const uint64_t s : {0u, 0u, 1u, 3u, 2u, 9u, 9u, 10u}) {
        const uint32_t got = mct.recordIfTracked(5, sub(s));
        EXPECT_GE(got, 1u) << "a recorded miss always counts";
        EXPECT_EQ(got, twin.recordMiss(5, sub(s))) << "subwindow " << s;
    }
    mct.remove(5);
    EXPECT_EQ(mct.recordIfTracked(5, sub(10)), 0u);
    EXPECT_FALSE(mct.contains(5));
    mct.checkInvariants();
}

TEST(Mct, WindowExpiry)
{
    Mct mct(kSpec);
    mct.admit(5, sub(0));
    mct.recordMiss(5, sub(0));
    mct.recordMiss(5, sub(1));
    EXPECT_EQ(mct.count(5, sub(3)), 2u);
    EXPECT_EQ(mct.count(5, sub(4)), 1u);
    EXPECT_EQ(mct.count(5, sub(6)), 0u);
}

TEST(Mct, PruneDropsStaleKeepsFresh)
{
    Mct mct(kSpec);
    mct.admit(1, sub(0));
    mct.admit(2, sub(0));
    mct.recordMiss(1, sub(0));
    mct.recordMiss(2, sub(9));
    mct.prune(sub(10));
    // Block 1's last update (sub 0) is >= k behind: stale.
    EXPECT_FALSE(mct.contains(1));
    EXPECT_TRUE(mct.contains(2));
    EXPECT_EQ(mct.size(), 1u);
}

TEST(Mct, MemoryGrowsWithEntries)
{
    Mct mct(kSpec);
    const uint64_t empty = mct.memoryBytes();
    for (uint64_t b = 0; b < 100; ++b)
        mct.admit(b, 0);
    EXPECT_GT(mct.memoryBytes(), empty);
    EXPECT_EQ(mct.size(), 100u);
    mct.clear();
    EXPECT_EQ(mct.size(), 0u);
}

} // namespace

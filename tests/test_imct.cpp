/**
 * @file
 * Unit tests for the Imprecise Miss Count Table (first sieve tier).
 */

#include <gtest/gtest.h>

#include "core/imct.hpp"
#include "util/logging.hpp"

namespace {

using namespace sievestore::core;
using sievestore::trace::BlockId;
using sievestore::util::FatalError;

TEST(Imct, CountsMissesPerSlot)
{
    Imct imct(1024, WindowSpec::paperDefault());
    EXPECT_EQ(imct.count(42, 0), 0u);
    EXPECT_EQ(imct.recordMiss(42, 0), 1u);
    EXPECT_EQ(imct.recordMiss(42, 0), 2u);
    EXPECT_EQ(imct.count(42, 0), 2u);
}

TEST(Imct, SlotMappingIsStable)
{
    Imct imct(128, WindowSpec::paperDefault(), 5);
    const size_t slot = imct.slotOf(777);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(imct.slotOf(777), slot);
    EXPECT_LT(slot, imct.slots());
}

TEST(Imct, AliasedBlocksShareCounts)
{
    // With a tiny table, find two blocks in the same slot and verify
    // they pool their misses — the aliasing the MCT must clean up.
    Imct imct(4, WindowSpec::paperDefault());
    BlockId a = 1;
    BlockId b = 2;
    bool found = false;
    for (BlockId candidate = 2; candidate < 100 && !found; ++candidate) {
        if (imct.slotOf(candidate) == imct.slotOf(a)) {
            b = candidate;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    imct.recordMiss(a, 0);
    imct.recordMiss(a, 0);
    EXPECT_EQ(imct.count(b, 0), 2u); // b inherits a's misses
    EXPECT_EQ(imct.recordMiss(b, 0), 3u);
}

TEST(Imct, DifferentSeedsRemapBlocks)
{
    Imct a(4096, WindowSpec::paperDefault(), 1);
    Imct b(4096, WindowSpec::paperDefault(), 2);
    int same = 0;
    for (BlockId blk = 0; blk < 1000; ++blk)
        if (a.slotOf(blk) == b.slotOf(blk))
            ++same;
    EXPECT_LT(same, 10);
}

TEST(Imct, WindowExpiry)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    Imct imct(1024, spec);
    const auto sub = [&](uint64_t s) { return s * spec.subwindow_us; };
    imct.recordMiss(9, sub(0));
    imct.recordMiss(9, sub(1));
    EXPECT_EQ(imct.count(9, sub(3)), 2u);
    EXPECT_EQ(imct.count(9, sub(4)), 1u);
    EXPECT_EQ(imct.count(9, sub(5)), 0u);
}

TEST(Imct, MemoryIsFixedBySlotCount)
{
    Imct imct(1000, WindowSpec::paperDefault());
    const uint64_t before = imct.memoryBytes();
    for (BlockId b = 0; b < 100000; ++b)
        imct.recordMiss(b, 0);
    EXPECT_EQ(imct.memoryBytes(), before);
}

TEST(Imct, ClearZeroesAllSlots)
{
    Imct imct(64, WindowSpec::paperDefault());
    for (BlockId b = 0; b < 1000; ++b)
        imct.recordMiss(b, 0);
    imct.clear();
    for (BlockId b = 0; b < 1000; ++b)
        EXPECT_EQ(imct.count(b, 0), 0u);
}

TEST(Imct, RejectsZeroSlots)
{
    EXPECT_THROW(Imct(0, WindowSpec::paperDefault()), FatalError);
}

TEST(Imct, RejectsBadWindow)
{
    WindowSpec k0 = WindowSpec::paperDefault();
    k0.k = 0;
    EXPECT_THROW(Imct(16, k0), FatalError);
    WindowSpec k5 = WindowSpec::paperDefault();
    k5.k = kMaxSubwindows + 1;
    EXPECT_THROW(Imct(16, k5), FatalError);
    WindowSpec no_len = WindowSpec::paperDefault();
    no_len.subwindow_us = 0;
    EXPECT_THROW(Imct(16, no_len), FatalError);
}

TEST(Imct, SpreadsBlocksAcrossSlots)
{
    Imct imct(256, WindowSpec::paperDefault());
    std::vector<int> hits(256, 0);
    for (BlockId b = 0; b < 25600; ++b)
        ++hits[imct.slotOf(b)];
    // Every slot should receive something near the mean of 100.
    for (int h : hits) {
        EXPECT_GT(h, 50);
        EXPECT_LT(h, 160);
    }
}

} // namespace

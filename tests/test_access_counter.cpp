/**
 * @file
 * Unit tests for in-memory access counting: the free per-block count
 * helpers and the page-keyed epoch counter. The counter's full
 * equivalence with a per-block table is test_access_counter_
 * differential's job; these pin its layout and edge cases.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/access_counter.hpp"

namespace {

using namespace sievestore::analysis;
using namespace sievestore::trace;

Request
makeRequest(uint64_t offset, uint32_t len)
{
    Request r;
    r.volume = 1;
    r.offset_blocks = offset;
    r.length_blocks = len;
    return r;
}

TEST(AccessCounter, CountsPerBlock)
{
    std::vector<Request> reqs = {makeRequest(0, 4), makeRequest(2, 4)};
    const BlockCounts counts = countBlockAccesses(reqs);
    EXPECT_EQ(counts.size(), 6u);
    EXPECT_EQ(counts.at(makeBlockId(1, 0)), 1u);
    EXPECT_EQ(counts.at(makeBlockId(1, 2)), 2u);
    EXPECT_EQ(counts.at(makeBlockId(1, 3)), 2u);
    EXPECT_EQ(counts.at(makeBlockId(1, 5)), 1u);
    EXPECT_EQ(totalAccesses(counts), 8u);
}

TEST(AccessCounter, SortedByCountDescendingWithTieBreak)
{
    BlockCounts counts;
    counts[makeBlockId(0, 5)] = 3;
    counts[makeBlockId(0, 1)] = 7;
    counts[makeBlockId(0, 9)] = 3;
    const auto ranked = sortedByCount(counts);
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].block, makeBlockId(0, 1));
    EXPECT_EQ(ranked[0].count, 7u);
    // Equal counts break ties by ascending BlockId for determinism.
    EXPECT_EQ(ranked[1].block, makeBlockId(0, 5));
    EXPECT_EQ(ranked[2].block, makeBlockId(0, 9));
}

TEST(AccessCounter, EmptyInput)
{
    const BlockCounts counts = countBlockAccesses({});
    EXPECT_TRUE(counts.empty());
    EXPECT_EQ(totalAccesses(counts), 0u);
    EXPECT_TRUE(sortedByCount(counts).empty());
}

TEST(AccessCounter, SaturatingIncrementStopsAtUint32Max)
{
    EXPECT_EQ(saturatingIncrement(0), 1u);
    EXPECT_EQ(saturatingIncrement(254), 255u);
    EXPECT_EQ(saturatingIncrement(UINT32_MAX - 1), UINT32_MAX);
    EXPECT_EQ(saturatingIncrement(UINT32_MAX), UINT32_MAX);
}

TEST(AccessCounter, OnePageSlotServesItsEightBlocks)
{
    AccessCounter counter;
    // Blocks 8..15 of volume 2 share one 4 KB page: one slot.
    std::vector<BlockId> page;
    for (uint64_t nr = 8; nr < 16; ++nr)
        page.push_back(makeBlockId(2, nr));
    counter.observeBatch(page);
    counter.observe(makeBlockId(2, 9));
    EXPECT_EQ(counter.uniqueBlocks(), 8u);
    EXPECT_EQ(counter.totalAccesses(), 9u);
    EXPECT_EQ(counter.count(makeBlockId(2, 9)), 2u);
    EXPECT_EQ(counter.count(makeBlockId(2, 15)), 1u);
    // Neighbouring pages and the same offset on another volume are
    // untouched.
    EXPECT_EQ(counter.count(makeBlockId(2, 7)), 0u);
    EXPECT_EQ(counter.count(makeBlockId(2, 16)), 0u);
    EXPECT_EQ(counter.count(makeBlockId(3, 9)), 0u);
    counter.checkInvariants();
}

TEST(AccessCounter, UnalignedExtentStraddlesPages)
{
    AccessCounter counter;
    // Blocks 6..17: the tail of page 0, all of page 1, the head of
    // page 2.
    std::vector<BlockId> run;
    for (uint64_t nr = 6; nr < 18; ++nr)
        run.push_back(makeBlockId(1, nr));
    counter.observeBatch(run);
    counter.observeBatch(run);
    EXPECT_EQ(counter.uniqueBlocks(), 12u);
    EXPECT_EQ(counter.totalAccesses(), 24u);
    // Zero counts of a stored page are never reported.
    const std::vector<BlockId> blocks = counter.sortedBlocks();
    ASSERT_EQ(blocks.size(), 12u);
    EXPECT_EQ(blocks.front(), makeBlockId(1, 6));
    EXPECT_EQ(blocks.back(), makeBlockId(1, 17));
    EXPECT_TRUE(counter.countsAtLeast(3).empty());
    EXPECT_EQ(counter.countsAtLeast(2).size(), 12u);
    counter.checkInvariants();
}

TEST(AccessCounter, TopOfBlockFieldStaysInItsVolume)
{
    AccessCounter counter;
    const BlockId last = makeBlockId(65535, kBlockNrMask);
    counter.observe(last);
    counter.observe(makeBlockId(65535, kBlockNrMask - 7));
    EXPECT_EQ(counter.count(last), 1u);
    EXPECT_EQ(counter.count(makeBlockId(65535, kBlockNrMask - 7)), 1u);
    EXPECT_EQ(counter.count(makeBlockId(65535, kBlockNrMask - 8)), 0u);
    const auto ranked = counter.sortedByCount();
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].block, makeBlockId(65535, kBlockNrMask - 7));
    EXPECT_EQ(ranked[1].block, last);
    counter.checkInvariants();
}

TEST(AccessCounter, ClearKeepsTheSlotArena)
{
    AccessCounter counter;
    for (uint64_t nr = 0; nr < 4096; ++nr)
        counter.observe(makeBlockId(0, nr * 3));
    const uint64_t bytes = counter.memoryBytes();
    EXPECT_GT(bytes, 0u);
    counter.clear();
    EXPECT_TRUE(counter.empty());
    EXPECT_EQ(counter.uniqueBlocks(), 0u);
    EXPECT_EQ(counter.totalAccesses(), 0u);
    EXPECT_TRUE(counter.sortedByCount().empty());
    EXPECT_EQ(counter.memoryBytes(), bytes);
    counter.checkInvariants();
}

} // namespace

/**
 * @file
 * Unit tests for request expansion and completion-time interpolation.
 */

#include <gtest/gtest.h>

#include "support/expand.hpp"

namespace {

using namespace sievestore::trace;

Request
makeRequest(uint64_t time, uint32_t len, uint32_t latency,
            uint64_t offset = 0)
{
    Request r;
    r.time = time;
    r.volume = 2;
    r.server = 1;
    r.op = Op::Read;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = latency;
    return r;
}

TEST(Interpolation, LastBlockCompletesAtRequestCompletion)
{
    const Request r = makeRequest(1000, 7, 700);
    EXPECT_EQ(interpolatedCompletion(r, 6), r.completion());
}

TEST(Interpolation, MonotoneNonDecreasing)
{
    const Request r = makeRequest(0, 100, 1234);
    uint64_t prev = 0;
    for (uint32_t i = 0; i < 100; ++i) {
        const uint64_t c = interpolatedCompletion(r, i);
        EXPECT_GE(c, prev);
        EXPECT_GE(c, r.time);
        EXPECT_LE(c, r.completion());
        prev = c;
    }
}

TEST(Interpolation, SingleBlockGetsFullLatency)
{
    const Request r = makeRequest(500, 1, 80);
    EXPECT_EQ(interpolatedCompletion(r, 0), 580u);
}

TEST(Interpolation, EvenSplitAcrossBlocks)
{
    // 4 blocks, 400 us: completions at 100/200/300/400 after issue.
    const Request r = makeRequest(0, 4, 400);
    EXPECT_EQ(interpolatedCompletion(r, 0), 100u);
    EXPECT_EQ(interpolatedCompletion(r, 1), 200u);
    EXPECT_EQ(interpolatedCompletion(r, 2), 300u);
    EXPECT_EQ(interpolatedCompletion(r, 3), 400u);
}

TEST(Expand, OneAccessPerBlock)
{
    const Request r = makeRequest(10, 5, 50, 100);
    std::vector<BlockAccess> out;
    expandRequest(r, out);
    ASSERT_EQ(out.size(), 5u);
    for (uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(out[i].block, makeBlockId(2, 100 + i));
        EXPECT_EQ(out[i].time, 10u);
        EXPECT_EQ(out[i].server, 1);
        EXPECT_EQ(out[i].op, Op::Read);
        EXPECT_EQ(out[i].completion, interpolatedCompletion(r, i));
    }
}

TEST(BlockAccessStream, MatchesBatchExpansion)
{
    std::vector<Request> reqs = {makeRequest(1, 3, 30, 0),
                                 makeRequest(2, 2, 20, 50)};
    std::vector<BlockAccess> batch;
    for (const auto &r : reqs)
        expandRequest(r, batch);

    VectorTrace trace(reqs);
    BlockAccessStream stream(trace);
    BlockAccess a;
    size_t i = 0;
    while (stream.next(a)) {
        ASSERT_LT(i, batch.size());
        EXPECT_EQ(a.block, batch[i].block);
        EXPECT_EQ(a.time, batch[i].time);
        EXPECT_EQ(a.completion, batch[i].completion);
        ++i;
    }
    EXPECT_EQ(i, batch.size());
    EXPECT_EQ(stream.requests(), 2u);
    EXPECT_EQ(stream.accesses(), 5u);
}

TEST(BlockAccessStream, SkipsZeroLengthRequests)
{
    std::vector<Request> reqs = {makeRequest(1, 0, 10),
                                 makeRequest(2, 1, 10)};
    VectorTrace trace(reqs);
    BlockAccessStream stream(trace);
    BlockAccess a;
    ASSERT_TRUE(stream.next(a));
    EXPECT_EQ(a.time, 2u);
    EXPECT_FALSE(stream.next(a));
}

TEST(BlockAccessStream, ResetRestarts)
{
    std::vector<Request> reqs = {makeRequest(1, 2, 10)};
    VectorTrace trace(reqs);
    BlockAccessStream stream(trace);
    BlockAccess a;
    while (stream.next(a)) {
    }
    stream.reset();
    size_t count = 0;
    while (stream.next(a))
        ++count;
    EXPECT_EQ(count, 2u);
}

} // namespace

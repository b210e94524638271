/**
 * @file
 * Unit tests for the fully-associative block cache.
 */

#include <gtest/gtest.h>

#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"
#include "oracle/reference_replacement.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::cache;
using sievestore::oracle::makeReferencePolicy;
using sievestore::trace::BlockId;
using sievestore::util::FatalError;
using sievestore::util::Rng;

TEST(BlockCache, InsertAndLookup)
{
    BlockCache cache(4);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.access(1));
    cache.insert(1);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.access(1));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(BlockCache, LruEvictionOrder)
{
    BlockCache cache(3);
    cache.insert(1);
    cache.insert(2);
    cache.insert(3);
    // Touch 1 so 2 becomes LRU.
    cache.access(1);
    const auto evicted = cache.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 2u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
}

TEST(BlockCache, NoEvictionBelowCapacity)
{
    BlockCache cache(10);
    for (BlockId b = 0; b < 10; ++b)
        EXPECT_FALSE(cache.insert(b).has_value());
    EXPECT_TRUE(cache.full());
}

TEST(BlockCache, Erase)
{
    BlockCache cache(2);
    cache.insert(5);
    EXPECT_TRUE(cache.erase(5));
    EXPECT_FALSE(cache.erase(5));
    EXPECT_EQ(cache.size(), 0u);
    // Slot is reusable.
    cache.insert(6);
    cache.insert(7);
    EXPECT_FALSE(cache.insert(5).has_value() == false &&
                 cache.size() != 2);
}

TEST(BlockCache, DuplicateInsertPanics)
{
    BlockCache cache(2);
    cache.insert(1);
    EXPECT_DEATH(cache.insert(1), "resident");
}

TEST(BlockCache, ZeroCapacityRejected)
{
    EXPECT_THROW(BlockCache(0), FatalError);
}

TEST(BlockCache, BatchReplaceCancellation)
{
    // Section 3.2: blocks in both the outgoing and incoming sets are
    // not moved.
    BlockCache cache(10);
    for (BlockId b = 1; b <= 5; ++b)
        cache.insert(b);
    const BatchReplaceResult r = cache.batchReplace({4, 5, 6, 7});
    EXPECT_EQ(r.retained, 2u);  // 4, 5
    EXPECT_EQ(r.evicted, 3u);   // 1, 2, 3
    EXPECT_EQ(r.allocated, 2u); // 6, 7
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_TRUE(cache.contains(6));
    EXPECT_FALSE(cache.contains(1));
}

TEST(BlockCache, BatchReplaceTruncatesToCapacity)
{
    BlockCache cache(3);
    std::vector<BlockId> incoming;
    for (BlockId b = 0; b < 10; ++b)
        incoming.push_back(b);
    const BatchReplaceResult r = cache.batchReplace(incoming);
    EXPECT_EQ(r.allocated, 3u);
    EXPECT_EQ(cache.size(), 3u);
    // Priority order: the first capacity entries win.
    EXPECT_TRUE(cache.contains(0));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_FALSE(cache.contains(3));
}

TEST(BlockCache, BatchReplaceEmptySetEvictsAll)
{
    BlockCache cache(4);
    cache.insert(1);
    cache.insert(2);
    const BatchReplaceResult r = cache.batchReplace({});
    EXPECT_EQ(r.evicted, 2u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(BlockCache, BatchThenContinuousInteroperate)
{
    BlockCache cache(3);
    cache.batchReplace({1, 2, 3});
    cache.access(1);
    cache.access(2);
    // 3 is LRU now.
    const auto evicted = cache.insert(9);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 3u);
}

TEST(BlockCache, ContentsSnapshot)
{
    BlockCache cache(4);
    cache.insert(10);
    cache.insert(20);
    auto contents = cache.contents();
    std::sort(contents.begin(), contents.end());
    EXPECT_EQ(contents, (std::vector<BlockId>{10, 20}));
}

/** All built-in kinds, across both cache engines. */
std::vector<BlockCache>
everyEngine(uint64_t capacity, EvictionKind kind)
{
    std::vector<BlockCache> caches;
    caches.emplace_back(capacity, EvictionSpec{kind, 3});
    caches.emplace_back(
        capacity, makeReferencePolicy(EvictionSpec{kind, 3}, capacity));
    return caches;
}

const EvictionKind kEveryKind[] = {EvictionKind::Lru,
                                   EvictionKind::Fifo,
                                   EvictionKind::Clock,
                                   EvictionKind::Lfu,
                                   EvictionKind::Random};

TEST(BlockCache, BatchReplaceAccountingHoldsForEveryPolicy)
{
    // The Section 3.2 cancellation semantics are policy-independent:
    // retained + evicted equals the outgoing size, retained +
    // allocated the installed size, for FIFO/CLOCK/Random/LFU just as
    // for LRU.
    for (const EvictionKind kind : kEveryKind) {
        for (BlockCache &cache : everyEngine(10, kind)) {
            for (BlockId b = 1; b <= 5; ++b)
                cache.insert(b);
            const BatchReplaceResult r = cache.batchReplace({4, 5, 6, 7});
            EXPECT_EQ(r.retained, 2u) << evictionKindName(kind);
            EXPECT_EQ(r.evicted, 3u) << evictionKindName(kind);
            EXPECT_EQ(r.allocated, 2u) << evictionKindName(kind);
            EXPECT_EQ(cache.size(), 4u) << evictionKindName(kind);
            EXPECT_TRUE(cache.contains(6));
            EXPECT_FALSE(cache.contains(1));
            cache.checkInvariants();
        }
    }
}

TEST(BlockCache, BatchReplaceTruncationHoldsForEveryPolicy)
{
    for (const EvictionKind kind : kEveryKind) {
        for (BlockCache &cache : everyEngine(3, kind)) {
            std::vector<BlockId> incoming;
            for (BlockId b = 0; b < 10; ++b)
                incoming.push_back(b);
            const BatchReplaceResult r = cache.batchReplace(incoming);
            EXPECT_EQ(r.allocated, 3u) << evictionKindName(kind);
            EXPECT_EQ(cache.size(), 3u) << evictionKindName(kind);
            EXPECT_TRUE(cache.contains(0));
            EXPECT_TRUE(cache.contains(2));
            EXPECT_FALSE(cache.contains(3));
            cache.checkInvariants();
        }
    }
}

TEST(BlockCache, BatchThenContinuousInteroperateForEveryPolicy)
{
    // After an epoch batch, the policy's continuous machinery must be
    // fully primed: inserts evict exactly one victim and hits behave
    // per the policy, with invariants intact throughout.
    for (const EvictionKind kind : kEveryKind) {
        for (BlockCache &cache : everyEngine(4, kind)) {
            cache.batchReplace({1, 2, 3, 4});
            for (BlockId b = 10; b < 40; ++b) {
                if (!cache.access(b)) {
                    const auto victim = cache.insert(b);
                    ASSERT_TRUE(victim.has_value())
                        << evictionKindName(kind);
                    EXPECT_FALSE(cache.contains(*victim));
                }
                ASSERT_EQ(cache.size(), 4u) << evictionKindName(kind);
            }
            cache.checkInvariants();
            // A second batch over a post-batch-churned cache.
            const BatchReplaceResult r =
                cache.batchReplace({100, 101, 102});
            EXPECT_EQ(r.retained + r.evicted, 4u)
                << evictionKindName(kind);
            EXPECT_EQ(r.retained + r.allocated, 3u)
                << evictionKindName(kind);
            cache.checkInvariants();
        }
    }
}

TEST(BlockCache, SizeNeverExceedsCapacityUnderRandomOps)
{
    BlockCache cache(16);
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const BlockId b = rng.nextBelow(100);
        if (!cache.access(b))
            cache.insert(b);
        ASSERT_LE(cache.size(), 16u);
    }
    EXPECT_EQ(cache.size(), 16u);
}

} // namespace

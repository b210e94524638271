/**
 * @file
 * Unit tests for replacement policies, run against BOTH cache engines:
 * the flat block-index engine (EvictionSpec) and the node-based
 * Reference* oracles in tests/oracle/ it must match. OracleRetain,
 * which stands alone in src/, is differenced against the flat LRU.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"
#include "oracle/reference_replacement.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::cache;
using namespace sievestore::oracle;
using sievestore::trace::BlockId;
using sievestore::util::Rng;

/** Both engines for one built-in policy kind. */
std::vector<BlockCache>
bothEngines(uint64_t capacity, EvictionKind kind, uint64_t seed = 1)
{
    std::vector<BlockCache> caches;
    caches.emplace_back(capacity, EvictionSpec{kind, seed});
    caches.emplace_back(
        capacity, makeReferencePolicy(EvictionSpec{kind, seed}, capacity));
    return caches;
}

TEST(Fifo, HitsDoNotPromote)
{
    for (BlockCache &cache : bothEngines(3, EvictionKind::Fifo)) {
        cache.insert(1);
        cache.insert(2);
        cache.insert(3);
        cache.access(1); // must not rescue 1 under FIFO
        const auto evicted = cache.insert(4);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 1u);
        cache.checkInvariants();
    }
}

TEST(Lru, HitsPromote)
{
    for (BlockCache &cache : bothEngines(3, EvictionKind::Lru)) {
        cache.insert(1);
        cache.insert(2);
        cache.insert(3);
        cache.access(1);
        const auto evicted = cache.insert(4);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 2u);
        cache.checkInvariants();
    }
}

TEST(Random, EvictsOnlyResidentBlocks)
{
    for (BlockCache &cache : bothEngines(8, EvictionKind::Random, 3)) {
        for (BlockId b = 0; b < 8; ++b)
            cache.insert(b);
        for (BlockId b = 100; b < 200; ++b) {
            const auto evicted = cache.insert(b);
            ASSERT_TRUE(evicted.has_value());
            ASSERT_LT(cache.size(), 9u);
            ASSERT_FALSE(cache.contains(*evicted));
        }
        cache.checkInvariants();
    }
}

TEST(Random, EventuallyEvictsEveryone)
{
    // With 2 slots and many inserts, both original blocks should go.
    for (BlockCache &cache : bothEngines(2, EvictionKind::Random, 7)) {
        cache.insert(1);
        cache.insert(2);
        for (BlockId b = 10; b < 60; ++b)
            if (!cache.contains(b))
                cache.insert(b);
        EXPECT_FALSE(cache.contains(1));
        EXPECT_FALSE(cache.contains(2));
        cache.checkInvariants();
    }
}

TEST(Lfu, EvictsLeastFrequentlyUsed)
{
    for (BlockCache &cache : bothEngines(3, EvictionKind::Lfu)) {
        cache.insert(1);
        cache.insert(2);
        cache.insert(3);
        cache.access(1);
        cache.access(1);
        cache.access(3);
        // Counts: 1->3, 2->1, 3->2.
        const auto evicted = cache.insert(4);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 2u);
        cache.checkInvariants();
    }
}

TEST(Lfu, TieBreaksByInsertionOrder)
{
    for (BlockCache &cache : bothEngines(2, EvictionKind::Lfu)) {
        cache.insert(1);
        cache.insert(2);
        const auto evicted = cache.insert(3);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 1u);
        cache.checkInvariants();
    }
}

TEST(Lfu, TieBreaksBySequenceNotBucketEntry)
{
    // 1 and 2 both reach count 2, 2 first. Frequency buckets would
    // evict 2 (earliest into the bucket); exact LFU evicts 1, the
    // lower insertion sequence.
    for (BlockCache &cache : bothEngines(2, EvictionKind::Lfu)) {
        cache.insert(1);
        cache.insert(2);
        cache.access(2);
        cache.access(1);
        const auto evicted = cache.insert(3);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 1u);
        cache.checkInvariants();
    }
}

TEST(Lfu, StaleRootIsRekeyedBeforeEviction)
{
    // 1 sits at the heap root with a stored count of 1 after two hits
    // made it 3; the victim search must look past it to 2.
    for (BlockCache &cache : bothEngines(3, EvictionKind::Lfu)) {
        cache.insert(1);
        cache.insert(2);
        cache.insert(3);
        cache.access(1);
        cache.access(1);
        const auto evicted = cache.insert(4);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 2u);
        EXPECT_TRUE(cache.contains(1));
        cache.checkInvariants();
    }
}

TEST(OracleRetain, ProtectedBlocksSurvive)
{
    auto policy = std::make_unique<OracleRetainPolicy>();
    OracleRetainPolicy *oracle = policy.get();
    BlockCache cache(3, std::move(policy));
    cache.insert(1);
    cache.insert(2);
    cache.insert(3);
    oracle->setProtected({1, 2});
    // Insertions evict only the unprotected 3, then... everything is
    // protected, so plain LRU applies.
    auto evicted = cache.insert(4);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 3u);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    // 4 is unprotected: it is the next victim even though it is MRU.
    evicted = cache.insert(5);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 4u);
}

TEST(OracleRetain, FallsBackToLruWhenAllProtected)
{
    auto policy = std::make_unique<OracleRetainPolicy>();
    OracleRetainPolicy *oracle = policy.get();
    BlockCache cache(2, std::move(policy));
    cache.insert(1);
    cache.insert(2);
    oracle->setProtected({1, 2, 3});
    const auto evicted = cache.insert(3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1u); // LRU of the protected set
}

/** Resident blocks in ascending order (contents() is unordered). */
std::vector<BlockId>
sortedContents(const BlockCache &cache)
{
    auto blocks = cache.contents();
    std::sort(blocks.begin(), blocks.end());
    return blocks;
}

/**
 * With nothing protected, OracleRetain is plain LRU. No differential
 * suite covers its recency list, so it is differenced here against
 * the flat LRU engine on one long random stream of hits, inserts at
 * capacity, erases and epoch swaps: every victim, every swap's
 * accounting and every resident set must agree.
 */
TEST(OracleRetain, EmptyProtectedSetMatchesFlatLru)
{
    constexpr uint64_t kCapacity = 64;
    constexpr uint64_t kKeySpace = 256;
    BlockCache flat(kCapacity, EvictionSpec{EvictionKind::Lru});
    BlockCache retain(kCapacity, std::make_unique<OracleRetainPolicy>());
    Rng rng(29);
    uint64_t evictions = 0;
    uint64_t swaps = 0;
    for (int op = 0; op < 20000; ++op) {
        const BlockId b = rng.nextBelow(kKeySpace);
        const uint64_t pick = rng.nextBelow(100);
        if (pick < 2) { // epoch swap, sometimes oversized
            std::vector<BlockId> incoming;
            const uint64_t n = rng.nextBelow(kCapacity + kCapacity / 2);
            for (uint64_t i = 0; i < n; ++i)
                incoming.push_back(rng.nextBelow(kKeySpace));
            std::vector<BlockId> f_alloc, f_evict, r_alloc, r_evict;
            const BatchReplaceResult f =
                flat.batchReplace(incoming, &f_alloc, &f_evict);
            const BatchReplaceResult r =
                retain.batchReplace(incoming, &r_alloc, &r_evict);
            ASSERT_EQ(f.allocated, r.allocated) << "op " << op;
            ASSERT_EQ(f.retained, r.retained) << "op " << op;
            ASSERT_EQ(f.evicted, r.evicted) << "op " << op;
            ASSERT_EQ(f_alloc, r_alloc) << "op " << op;
            ASSERT_EQ(f_evict, r_evict) << "op " << op;
            ++swaps;
        } else if (pick < 12) { // explicit erase
            ASSERT_EQ(flat.erase(b), retain.erase(b)) << "op " << op;
        } else { // access, insert on miss (the appliance hot path)
            const bool hit = flat.access(b);
            ASSERT_EQ(hit, retain.access(b)) << "op " << op;
            if (!hit) {
                const auto victim = flat.insert(b);
                ASSERT_EQ(victim, retain.insert(b))
                    << "victim for insert(" << b << ") op " << op;
                evictions += victim.has_value() ? 1u : 0u;
            }
        }
        ASSERT_EQ(sortedContents(flat), sortedContents(retain))
            << "op " << op;
    }
    retain.checkInvariants();
    // The stream must have exercised the paths it claims to.
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(swaps, 100u);
}

/**
 * A protected set installed mid-stream (and widened later) is never
 * evicted while an unprotected block is resident. Rotation only ever
 * moves protected blocks, so among unprotected ones the victim is
 * still the least recently used: that is checked too. The wider set
 * contains the first, because a block rotated while protected keeps
 * the hotter place rotation gave it; unprotecting it would make its
 * recency unobservable from outside the policy.
 */
TEST(OracleRetain, ProtectedSetInstalledMidStream)
{
    constexpr uint64_t kCapacity = 32;
    constexpr uint64_t kKeySpace = 128;
    constexpr int kOps = 30000;
    auto policy = std::make_unique<OracleRetainPolicy>();
    OracleRetainPolicy *oracle = policy.get();
    BlockCache cache(kCapacity, std::move(policy));
    Rng rng(31);
    std::unordered_set<BlockId> protected_set;
    std::unordered_map<BlockId, int> last_touch;
    uint64_t protected_victims = 0;
    uint64_t unprotected_victims = 0;
    for (int op = 0; op < kOps; ++op) {
        if (op == kOps / 3 || op == 2 * kOps / 3) {
            // Fewer protected keys than slots at the first install,
            // more at the second, so both the scan and the
            // all-protected fallback run.
            const uint64_t want = op == kOps / 3 ? kCapacity / 2
                                                 : 2 * kCapacity;
            while (protected_set.size() < want)
                protected_set.insert(rng.nextBelow(kKeySpace));
            oracle->setProtected(protected_set);
        }
        const BlockId b = rng.nextBelow(kKeySpace);
        if (rng.nextBelow(10) == 0) {
            cache.erase(b);
            continue;
        }
        if (cache.access(b)) {
            last_touch[b] = op;
            continue;
        }
        // The expected victim: the least recently touched unprotected
        // resident block, if any is resident.
        std::optional<BlockId> coldest_unprotected;
        if (cache.full()) {
            for (const BlockId r : cache.contents()) {
                if (protected_set.count(r))
                    continue;
                if (!coldest_unprotected ||
                    last_touch[r] < last_touch[*coldest_unprotected])
                    coldest_unprotected = r;
            }
        }
        const auto victim = cache.insert(b);
        last_touch[b] = op;
        if (!victim)
            continue;
        if (coldest_unprotected) {
            ASSERT_FALSE(protected_set.count(*victim))
                << "protected block " << *victim
                << " evicted while unprotected " << *coldest_unprotected
                << " was resident, op " << op;
            ASSERT_EQ(*victim, *coldest_unprotected) << "op " << op;
            ++unprotected_victims;
        } else {
            ASSERT_TRUE(protected_set.count(*victim)) << "op " << op;
            ++protected_victims;
        }
    }
    cache.checkInvariants();
    EXPECT_GT(unprotected_victims, 1000u);
    EXPECT_GT(protected_victims, 0u);
}

TEST(OracleRetain, MisuseIsPanic)
{
    OracleRetainPolicy retain;
    EXPECT_DEATH(retain.victim(), "empty");
    EXPECT_DEATH(retain.onAccess(42), "non-resident");
    retain.onInsert(1);
    EXPECT_DEATH(retain.onInsert(1), "duplicate");
    EXPECT_DEATH(retain.onErase(2), "non-resident");
}

TEST(Policies, NamesAreStable)
{
    EXPECT_STREQ(ReferenceLruPolicy().name(), "LRU");
    EXPECT_STREQ(ReferenceFifoPolicy().name(), "FIFO");
    EXPECT_STREQ(ReferenceRandomPolicy().name(), "Random");
    EXPECT_STREQ(ReferenceLfuPolicy().name(), "LFU");
    EXPECT_STREQ(OracleRetainPolicy().name(), "OracleRetain");
    EXPECT_STREQ(evictionKindName(EvictionKind::Lru), "LRU");
    EXPECT_STREQ(evictionKindName(EvictionKind::Fifo), "FIFO");
    EXPECT_STREQ(evictionKindName(EvictionKind::Clock), "CLOCK");
    EXPECT_STREQ(evictionKindName(EvictionKind::Lfu), "LFU");
    EXPECT_STREQ(evictionKindName(EvictionKind::Random), "Random");
    // The flat engine reports the same names through the cache.
    EXPECT_STREQ(
        BlockCache(2, EvictionSpec{EvictionKind::Clock}).policyName(),
        "CLOCK");
    EXPECT_STREQ(
        BlockCache(2, makeReferencePolicy({EvictionKind::Lfu}, 2))
            .policyName(),
        "LFU");
}

TEST(Policies, ReferenceNamesMatchKindNames)
{
    for (const EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Fifo, EvictionKind::Clock,
          EvictionKind::Lfu, EvictionKind::Random}) {
        EXPECT_STREQ(makeReferencePolicy({kind, 1}, 8)->name(),
                     evictionKindName(kind));
    }
}

TEST(Policies, MisuseIsPanic)
{
    ReferenceLruPolicy lru;
    EXPECT_DEATH(lru.victim(), "empty");
    EXPECT_DEATH(lru.onAccess(42), "non-resident");
    lru.onInsert(1);
    EXPECT_DEATH(lru.onErase(2), "non-resident");
}

TEST(Policies, FlatMemoryNeverAboveReference)
{
    // The acceptance bar for the refactor: total per-block metadata of
    // the flat engine at or below the node-based reference, per
    // policy, at a realistic fill.
    for (const EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Fifo, EvictionKind::Clock,
          EvictionKind::Lfu, EvictionKind::Random}) {
        auto caches = bothEngines(4096, kind);
        for (BlockCache &cache : caches)
            for (BlockId b = 0; b < 4096; ++b)
                cache.insert(b);
        EXPECT_LE(caches[0].memoryBytes(), caches[1].memoryBytes())
            << "flat engine out-sizes reference for "
            << evictionKindName(kind);
    }
}

} // namespace

namespace clock_tests {

using namespace sievestore::cache;
using namespace sievestore::oracle;
using sievestore::trace::BlockId;

/** Both engines for CLOCK. */
std::vector<BlockCache>
bothClocks(uint64_t capacity)
{
    std::vector<BlockCache> caches;
    caches.emplace_back(capacity, EvictionSpec{EvictionKind::Clock});
    caches.emplace_back(
        capacity,
        makeReferencePolicy(EvictionSpec{EvictionKind::Clock}, capacity));
    return caches;
}

TEST(Clock, SecondChancePprotectsReferencedBlocks)
{
    for (BlockCache &cache : bothClocks(3)) {
        cache.insert(1);
        cache.insert(2);
        cache.insert(3);
        // All reference bits are set on insert; the hand clears 1, 2, 3
        // then evicts the first unreferenced block it re-reaches: 1.
        auto evicted = cache.insert(4);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 1u);
        cache.checkInvariants();
    }
}

TEST(Clock, AccessGrantsSecondChance)
{
    for (BlockCache &cache : bothClocks(3)) {
        cache.insert(1);
        cache.insert(2);
        cache.insert(3);
        cache.insert(4); // evicts 1, clears bits of 2, 3
        cache.access(2); // re-reference 2
        auto evicted = cache.insert(5);
        ASSERT_TRUE(evicted.has_value());
        EXPECT_EQ(*evicted, 3u); // 2 was saved by its reference bit
        EXPECT_TRUE(cache.contains(2));
        cache.checkInvariants();
    }
}

TEST(Clock, ApproximatesLruOnLoopingScan)
{
    // A cyclic scan over N+1 blocks with an N-block cache: CLOCK, like
    // LRU, misses every access after warmup.
    for (BlockCache &cache : bothClocks(4)) {
        uint64_t hits = 0;
        for (int round = 0; round < 50; ++round)
            for (BlockId b = 0; b < 5; ++b) {
                if (cache.access(b))
                    ++hits;
                else
                    cache.insert(b);
            }
        EXPECT_LT(hits, 25u); // far below the 200 a hot-loop would give
    }
}

TEST(Clock, EraseUnderTheHandIsSafe)
{
    for (BlockCache &cache : bothClocks(3)) {
        cache.insert(1);
        cache.insert(2);
        cache.insert(3);
        cache.insert(4); // hand is now parked inside the ring
        EXPECT_TRUE(cache.erase(2) || cache.erase(3) || cache.erase(4));
        // Ring stays consistent: we can keep inserting/evicting.
        for (BlockId b = 10; b < 30; ++b)
            if (!cache.contains(b))
                cache.insert(b);
        EXPECT_LE(cache.size(), 3u);
        cache.checkInvariants();
    }
}

TEST(Clock, Name)
{
    EXPECT_STREQ(ReferenceClockPolicy().name(), "CLOCK");
}

} // namespace clock_tests

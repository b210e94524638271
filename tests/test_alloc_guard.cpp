/**
 * @file
 * AllocGuard behavior: violations abort (death tests), disarm and
 * conditional regions pass allocations through, and — the property
 * the guard exists to enforce — the flat cache engine's steady state
 * runs entire op loops with zero allocations under every built-in
 * eviction policy.
 */

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"
#include "core/windowed_counter.hpp"
#include "oracle/reference_replacement.hpp"
#include "util/alloc_guard.hpp"
#include "util/spsc_queue.hpp"

using sievestore::cache::BlockCache;
using sievestore::cache::EvictionKind;
using sievestore::cache::EvictionSpec;
using sievestore::core::Imct;
using sievestore::core::Mct;
using sievestore::core::WindowSpec;
using sievestore::util::AllocGuard;
using sievestore::util::AllocGuardDisarm;
using sievestore::util::SpscQueue;

namespace {

/** Heap-allocating call the optimizer cannot elide. */
void
allocateSomething()
{
    auto p = std::make_unique<std::vector<uint64_t>>(64);
    ASSERT_NE(p->data(), nullptr);
}

} // namespace

#ifndef SIEVE_ALLOC_GUARD_DISABLED

TEST(AllocGuardDeathTest, AllocationInsideRegionAborts)
{
    EXPECT_DEATH(
        {
            SIEVE_ASSERT_NO_ALLOC;
            allocateSomething();
        },
        "AllocGuard");
}

TEST(AllocGuardDeathTest, EngagedConditionalRegionAborts)
{
    EXPECT_DEATH(
        {
            SIEVE_ASSERT_NO_ALLOC_WHEN(1 + 1 == 2);
            allocateSomething();
        },
        "AllocGuard");
}

TEST(AllocGuardDeathTest, NestedRegionStaysArmedAfterInnerExit)
{
    EXPECT_DEATH(
        {
            SIEVE_ASSERT_NO_ALLOC;
            {
                SIEVE_ASSERT_NO_ALLOC;
            }
            // The inner region closed; the outer one must still arm.
            allocateSomething();
        },
        "AllocGuard");
}

TEST(AllocGuard, ActiveTracksRegionScopes)
{
    EXPECT_FALSE(AllocGuard::active());
    {
        SIEVE_ASSERT_NO_ALLOC;
        EXPECT_TRUE(AllocGuard::active());
        {
            AllocGuardDisarm disarm;
            EXPECT_FALSE(AllocGuard::active());
        }
        EXPECT_TRUE(AllocGuard::active());
    }
    EXPECT_FALSE(AllocGuard::active());
}

TEST(AllocGuard, AllocationCountAdvancesOnNew)
{
    const uint64_t before = AllocGuard::allocationCount();
    allocateSomething();
    EXPECT_GT(AllocGuard::allocationCount(), before);
}

TEST(AllocGuard, SteadyStateCacheOpsAllocateNothing)
{
    // The quantitative form of the pass-through tests below: a
    // pre-reserved flat cache at capacity must run access, insert
    // (with eviction), and erase+reinsert without a single heap
    // allocation, under every built-in policy.
    constexpr uint64_t kCapacity = 64;
    for (const EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Fifo, EvictionKind::Clock,
          EvictionKind::Lfu, EvictionKind::Random}) {
        EvictionSpec spec;
        spec.kind = kind;
        BlockCache cache(kCapacity, spec);
        for (uint64_t b = 0; b < kCapacity; ++b)
            cache.insert(b);
        ASSERT_EQ(cache.size(), kCapacity);

        const uint64_t before = AllocGuard::allocationCount();
        for (uint64_t i = 0; i < 2000; ++i) {
            cache.access(i % kCapacity);
            cache.insert(kCapacity + i); // evicts: stays at capacity
            cache.erase(kCapacity + i);
            cache.insert(kCapacity + i);
        }
        EXPECT_EQ(AllocGuard::allocationCount(), before)
            << "policy " << static_cast<int>(kind)
            << " allocated in steady state";
    }
}

#endif // SIEVE_ALLOC_GUARD_DISABLED

TEST(AllocGuard, DisarmPermitsAllocationInsideRegion)
{
    SIEVE_ASSERT_NO_ALLOC;
    AllocGuardDisarm disarm;
    allocateSomething();
}

TEST(AllocGuard, DisengagedConditionalRegionPermitsAllocation)
{
    SIEVE_ASSERT_NO_ALLOC_WHEN(2 + 2 == 5);
    allocateSomething();
}

TEST(AllocGuard, ReferencePolicyCacheOpsPassThrough)
{
    // The node-based reference engine allocates per insert by design;
    // BlockCache's internal regions are conditioned on the flat
    // engine, so custom-policy caches must run unguarded.
    BlockCache cache(
        32, sievestore::oracle::makeReferencePolicy(EvictionSpec{}, 32));
    for (uint64_t b = 0; b < 200; ++b)
        cache.insert(b);
    EXPECT_EQ(cache.size(), 32u);
}

TEST(AllocGuard, GuardedSieveAndQueueOpsRunCleanly)
{
    // The internally-guarded Mct/Imct hot paths and a guarded POD
    // queue hand-off must complete with the guard armed — these are
    // the ISSUE's "active in the hot path, zero violations" sites.
    const WindowSpec spec = WindowSpec::paperDefault();
    Mct mct(spec);
    Imct imct(256, spec, 42);
    for (uint64_t b = 0; b < 512; ++b) {
        mct.admit(b, b * 1000);
        mct.recordMiss(b, b * 1000);
        imct.recordMiss(b, b * 1000);
        EXPECT_GE(mct.count(b, b * 1000), 1u);
        EXPECT_GE(imct.count(b, b * 1000), 1u);
    }
    mct.prune(1);

    SpscQueue<uint64_t> queue(16);
    // Single-threaded here, so this test plays both SPSC endpoints.
    queue.assertProducerRole();
    queue.assertConsumerRole();
    for (uint64_t i = 0; i < 64; ++i) {
        {
            SIEVE_ASSERT_NO_ALLOC;
            queue.push(i);
        }
        uint64_t out = 0;
        SIEVE_ASSERT_NO_ALLOC;
        EXPECT_TRUE(queue.tryPop(out));
        EXPECT_EQ(out, i);
    }
}

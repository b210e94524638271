/**
 * @file
 * Adversarial exercises for the checkInvariants() audit hooks: each
 * test drives a structure into the corner its audit was written for —
 * aliased IMCT slots, MCT pruning at the exact window boundary, a
 * cache at exact capacity, a sieve promoted under aliasing, and a
 * sharded run audited end to end. The audits abort on violation, so
 * "the test ran to completion" is the assertion; the EXPECT_* calls
 * pin the behavior that makes each scenario adversarial.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "cache/block_cache.hpp"
#include "core/discrete.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"
#include "core/sievestore_c.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "trace/trace_reader.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using core::Imct;
using core::Mct;
using core::WindowSpec;
using trace::BlockId;
using util::TimeUs;

trace::BlockAccess
missAt(BlockId block, TimeUs t)
{
    trace::BlockAccess a;
    a.block = block;
    a.time = t;
    a.completion = t + 500;
    a.op = trace::Op::Read;
    return a;
}

// ---- WindowedCounter ----------------------------------------------

TEST(InvariantAudit, WindowedCounterAcrossBoundariesAndGaps)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    core::WindowedCounter c;
    c.checkInvariants(spec); // freshly-constructed counter audits

    // Fill every live subwindow, auditing as each one rolls over.
    for (uint32_t sub = 0; sub < 2 * spec.k; ++sub) {
        c.record(sub, spec);
        c.checkInvariants(spec);
    }
    // A gap of exactly k expires everything.
    const uint32_t last = 2 * spec.k - 1;
    EXPECT_TRUE(c.stale(last + spec.k, spec));
    EXPECT_EQ(c.total(last + spec.k, spec), 0u);
    // Out-of-order record (issue/completion interleaving) clamps to
    // the newest subwindow; the audit must still hold.
    c.record(last, spec);
    c.record(last - 2, spec);
    c.checkInvariants(spec);
}

// ---- IMCT under forced aliasing -----------------------------------

TEST(InvariantAudit, AliasedImctSlotsShareCounts)
{
    // 4 slots, 256 blocks: heavy aliasing by pigeonhole.
    const WindowSpec spec = WindowSpec::paperDefault();
    Imct imct(4, spec);
    imct.checkInvariants();

    const TimeUs t = util::makeTime(0, 1);
    for (BlockId b = 0; b < 256; ++b) {
        imct.recordMiss(b, t + b);
        imct.checkInvariants();
    }
    // Find an aliased pair and show the sieve's deliberate imprecision:
    // a block it never saw reports its slot-mates' misses.
    BlockId a = 0, b = 1;
    bool found = false;
    for (BlockId i = 0; i < 256 && !found; ++i)
        for (BlockId j = i + 1; j < 256 && !found; ++j)
            if (imct.slotOf(i) == imct.slotOf(j)) {
                a = i;
                b = j;
                found = true;
            }
    ASSERT_TRUE(found);
    EXPECT_EQ(imct.count(a, t + 256), imct.count(b, t + 256));
    EXPECT_GE(imct.count(a, t + 256), 2u);

    // Blocks far outside the table's index range still map in-bounds
    // (the audit probes this too, with fixed keys).
    imct.recordMiss(UINT64_MAX - 1, t);
    imct.recordMiss(UINT64_MAX / 3, t);
    imct.checkInvariants();
}

// ---- MCT pruning at the exact window boundary ---------------------

TEST(InvariantAudit, MctPruneAtWindowBoundary)
{
    const WindowSpec spec = WindowSpec::paperDefault();
    Mct mct(spec);
    mct.checkInvariants();

    const BlockId victim = 100, survivor = 200;
    const TimeUs t0 = util::makeTime(0, 1);
    mct.admit(victim, t0);
    mct.recordMiss(victim, t0);
    mct.checkInvariants();

    // The entry's window fully expires k subwindows after its last
    // touch. One microsecond before the boundary it must survive...
    const uint64_t last_sub = spec.subwindowOf(t0);
    const TimeUs boundary = (last_sub + spec.k) * spec.subwindow_us;
    EXPECT_EQ(mct.staleEntries(boundary - 1), 0u);
    mct.prune(boundary - 1);
    EXPECT_TRUE(mct.contains(victim));

    // ...and at exactly the boundary it must be reaped.
    mct.admit(survivor, boundary - 1); // freshly admitted: stays live
    EXPECT_EQ(mct.staleEntries(boundary), 1u);
    mct.prune(boundary);
    EXPECT_EQ(mct.staleEntries(boundary), 0u);
    EXPECT_FALSE(mct.contains(victim));
    EXPECT_TRUE(mct.contains(survivor));
    mct.checkInvariants();

    // Re-admission after reaping starts the count from zero — the
    // recency requirement the prune exists to enforce.
    mct.admit(victim, boundary);
    EXPECT_EQ(mct.count(victim, boundary), 0u);
    mct.checkInvariants();
}

// ---- cache at exact capacity --------------------------------------

TEST(InvariantAudit, CacheAtExactCapacity)
{
    cache::BlockCache cache(4);
    cache.checkInvariants();

    for (BlockId b = 0; b < 4; ++b) {
        EXPECT_FALSE(cache.insert(b).has_value());
        cache.checkInvariants();
    }
    EXPECT_TRUE(cache.full());
    EXPECT_EQ(cache.size(), 4u);

    // One past capacity: an eviction must keep size pinned.
    const auto evicted = cache.insert(99);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(cache.size(), 4u);
    cache.checkInvariants();

    // Erase + reinsert cycles the policy's mirror of the resident set.
    EXPECT_TRUE(cache.erase(99));
    EXPECT_FALSE(cache.erase(99));
    cache.checkInvariants();
    EXPECT_FALSE(cache.insert(7).has_value());
    cache.checkInvariants();

    // Batch replacement with overlap: the retained blocks cancel, and
    // an oversized new set is truncated to capacity.
    const auto res = cache.batchReplace({7, 50, 51, 52, 53, 54});
    EXPECT_EQ(cache.size(), 4u);
    EXPECT_EQ(res.retained, 1u);
    EXPECT_EQ(res.allocated, 3u);
    cache.checkInvariants();
}

// ---- two-tier sieve promoted under aliasing -----------------------

TEST(InvariantAudit, SieveTwoTierAccountingUnderAliasing)
{
    core::SieveStoreCConfig cfg;
    cfg.imct_slots = 2; // maximal aliasing: every block shares 2 slots
    core::SieveStoreCPolicy sieve(cfg);
    sieve.checkInvariants();

    // Interleave 8 blocks; aliasing promotes them far sooner than
    // t1 + t2 individual misses — the pollution the MCT tier exists
    // to bound. The accounting audit must hold after every step.
    TimeUs t = util::makeTime(0, 2);
    uint64_t allocations = 0;
    for (int round = 0; round < 40; ++round)
        for (BlockId b = 0; b < 8; ++b) {
            if (sieve.onMiss(missAt(b, t)) ==
                core::AllocDecision::Allocate)
                ++allocations;
            t += 1000;
            sieve.checkInvariants();
        }
    EXPECT_GT(allocations, 0u);
    EXPECT_EQ(sieve.allocations(), allocations);

    // Jump a full day: the subwindow-boundary prune fires and the
    // prune-correctness invariant (no stale entries survive) is
    // audited.
    (void)sieve.onMiss(missAt(777, t + util::makeTime(1)));
    sieve.checkInvariants();
}

// ---- discrete selector --------------------------------------------

TEST(InvariantAudit, AdbaSelectorEpochCycle)
{
    core::AdbaSelector sel(3);
    sel.checkInvariants();
    for (int i = 0; i < 5; ++i)
        sel.observe(42);
    for (int i = 0; i < 2; ++i)
        sel.observe(43);
    sel.checkInvariants();
    const uint64_t before = sel.metastateBytes();
    const auto chosen = sel.endOfEpoch();
    ASSERT_EQ(chosen.size(), 1u);
    EXPECT_EQ(chosen[0], 42u);
    sel.checkInvariants(); // counts reset for the next epoch
    // The flat counting table keeps its slot arena across the epoch
    // boundary (so replay never rehashes mid-trace); footprint is
    // capacity-bound and must not grow from merely clearing.
    EXPECT_LE(sel.metastateBytes(), before);
    // But the entries themselves are gone: a fresh epoch starts empty.
    EXPECT_TRUE(sel.endOfEpoch().empty());
}

// ---- appliance + sharded deployment, audited end to end -----------

std::vector<trace::Request>
smallTrace()
{
    std::vector<trace::Request> reqs;
    // Two days, two servers, a hot run and a cold scatter; enough to
    // cross day boundaries, promote blocks, and trigger flushes.
    for (uint64_t d = 0; d < 2; ++d)
        for (uint64_t i = 0; i < 40; ++i) {
            trace::Request r;
            r.time = util::makeTime(d, 1, i);
            r.offset_blocks = (i % 4) * 8;
            r.length_blocks = 8;
            r.latency_us = 800;
            r.volume = 0;
            r.server = 0;
            r.op = i % 3 == 0 ? trace::Op::Write : trace::Op::Read;
            reqs.push_back(r);

            r.time = util::makeTime(d, 2, i);
            r.offset_blocks = 1000 + i * 8; // cold: never promoted
            r.volume = 1;
            r.server = 1;
            r.op = trace::Op::Read;
            reqs.push_back(r);
        }
    std::sort(reqs.begin(), reqs.end(), trace::requestTimeLess);
    return reqs;
}

TEST(InvariantAudit, ApplianceAuditedThroughDriver)
{
    trace::VectorTrace view(smallTrace());
    sim::PolicyConfig pc;
    pc.kind = sim::PolicyKind::SieveStoreC;
    pc.sieve_c.imct_slots = 64;
    pc.sieve_c.t1 = 2;
    pc.sieve_c.t2 = 1;
    core::ApplianceConfig ac;
    ac.cache_blocks = 16; // small enough to evict
    auto app = sim::makeAppliance(pc, ac);

    sim::DriverOptions opts;
    opts.check_invariants = true; // audit at every day boundary
    sim::runTrace(view, *app, opts);
    app->checkInvariants();
    EXPECT_GT(app->totals().accesses, 0u);
    EXPECT_GT(app->totals().hits, 0u);
}

TEST(InvariantAudit, ShardedRunAuditedEndToEnd)
{
    // Force the sharded driver's internal audits on regardless of
    // build type.
    ::setenv("SIEVE_CHECK_INVARIANTS", "1", 1);

    trace::VectorTrace view(smallTrace());
    sim::ShardedConfig sc;
    sc.shards = 3;
    sc.policy.kind = sim::PolicyKind::SieveStoreC;
    sc.policy.sieve_c.imct_slots = 64;
    sc.policy.sieve_c.t1 = 2;
    sc.policy.sieve_c.t2 = 1;
    sc.node.cache_blocks = 16;
    auto result = sim::runSharded(view, sc);
    ::unsetenv("SIEVE_CHECK_INVARIANTS");

    result.checkInvariants();
    ASSERT_EQ(result.nodes.size(), 3u);
    const auto totals = result.totals();
    EXPECT_GT(totals.accesses, 0u);
    EXPECT_LE(totals.hits, totals.accesses);
    // Every access landed on exactly one shard.
    uint64_t per_node_sum = 0;
    for (const auto &node : result.nodes)
        per_node_sum += node->totals().accesses;
    EXPECT_EQ(per_node_sum, totals.accesses);
}

// ---- the audit itself must be able to fail ------------------------

TEST(InvariantAuditDeathTest, ViolatedContractAborts)
{
    // A WindowSpec with k beyond the counter's capacity is precisely
    // what checkInvariants() exists to reject.
    core::WindowedCounter c;
    WindowSpec bad;
    bad.k = core::kMaxSubwindows + 1;
    EXPECT_DEATH(c.checkInvariants(bad), "out of range");
}

} // namespace

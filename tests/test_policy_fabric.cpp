/**
 * @file
 * Policy-fabric tests: the three ghost-era eviction kinds (SIEVE,
 * ARC, W-TinyLFU) run through the same differential gauntlet that
 * proved the original flat engines — op-for-op equality against the
 * node-based reference policies, batchReplace parity, appliance-level
 * report equality across the sieve-policy matrix, and sharded
 * parallel replay at batch=64 against the serial batch=1 golden (the
 * batched request body's differential covers every kind in
 * test_flat_cache_differential). Plus the fabric-specific properties: ARC's
 * adaptation target stays inside [0, c] and its ghost directories
 * inside their budgets under adversarial streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"
#include "core/appliance.hpp"
#include "core/sieve_spec.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "trace/synthetic.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::cache;
using core::DailyReport;
using sievestore::trace::BlockId;
using sievestore::util::Rng;

const EvictionKind kFabricKinds[] = {
    EvictionKind::Sieve, EvictionKind::Arc, EvictionKind::TinyLfu};

// ---- cache-level op stream ----------------------------------------

/**
 * Drive both engines with an identical random stream of access /
 * insert / erase and require identical observable behavior after
 * every single operation (same contract as the original flat-engine
 * differential, now covering the fabric kinds).
 */
void
differentialOpStream(EvictionKind kind, uint64_t capacity,
                     uint64_t key_space, uint64_t seed, int ops)
{
    const EvictionSpec spec{kind, 11};
    BlockCache flat(capacity, spec);
    BlockCache reference(capacity, makeReferencePolicy(spec, capacity));
    Rng rng(seed);
    const std::string label = evictionKindName(kind);

    for (int op = 0; op < ops; ++op) {
        const BlockId b = rng.nextBelow(key_space);
        switch (rng.nextBelow(8)) {
          case 0: { // erase
            const bool f = flat.erase(b);
            const bool r = reference.erase(b);
            ASSERT_EQ(f, r) << label << " erase(" << b << ") op " << op;
            break;
          }
          default: { // access, insert on miss (the appliance hot path)
            const bool f_hit = flat.access(b);
            const bool r_hit = reference.access(b);
            ASSERT_EQ(f_hit, r_hit)
                << label << " access(" << b << ") op " << op;
            if (!f_hit) {
                const auto f_victim = flat.insert(b);
                const auto r_victim = reference.insert(b);
                ASSERT_EQ(f_victim, r_victim)
                    << label << " victim for insert(" << b << ") op "
                    << op;
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), reference.size()) << label;
    }
    flat.checkInvariants();
    reference.checkInvariants();

    auto f_contents = flat.contents();
    auto r_contents = reference.contents();
    std::sort(f_contents.begin(), f_contents.end());
    std::sort(r_contents.begin(), r_contents.end());
    EXPECT_EQ(f_contents, r_contents) << label;
}

TEST(PolicyFabric, OpStreamMatchesReferenceEveryKind)
{
    for (const EvictionKind kind : kFabricKinds) {
        // Tight key space: constant eviction pressure and ghost hits.
        differentialOpStream(kind, 64, 256, 42, 60000);
        // Wide key space: mostly-miss streaming (SIEVE/TinyLFU's
        // scan-resistance case).
        differentialOpStream(kind, 64, 1 << 16, 43, 60000);
        // Capacity 1 and 2: degenerate windows / single-node queues.
        differentialOpStream(kind, 1, 16, 44, 5000);
        differentialOpStream(kind, 2, 16, 45, 5000);
        // Looping pattern slightly over capacity: ARC's ghost-hit
        // steady state and SIEVE's hand wrap-around.
        differentialOpStream(kind, 64, 80, 46, 30000);
    }
}

TEST(PolicyFabric, BatchReplaceMatchesReferenceEveryKind)
{
    for (const EvictionKind kind : kFabricKinds) {
        const EvictionSpec spec{kind, 5};
        const uint64_t capacity = 128;
        BlockCache flat(capacity, spec);
        BlockCache reference(capacity,
                             makeReferencePolicy(spec, capacity));
        Rng rng(7 + static_cast<uint64_t>(kind));
        const std::string label = evictionKindName(kind);

        for (int epoch = 0; epoch < 30; ++epoch) {
            for (int op = 0; op < 500; ++op) {
                const BlockId b = rng.nextBelow(600);
                const bool f_hit = flat.access(b);
                ASSERT_EQ(f_hit, reference.access(b)) << label;
                if (!f_hit) {
                    ASSERT_EQ(flat.insert(b), reference.insert(b))
                        << label;
                }
            }
            std::vector<BlockId> incoming;
            const uint64_t n = rng.nextBelow(200);
            for (uint64_t i = 0; i < n; ++i)
                incoming.push_back(rng.nextBelow(600));
            const BatchReplaceResult f = flat.batchReplace(incoming);
            const BatchReplaceResult r =
                reference.batchReplace(incoming);
            EXPECT_EQ(f.retained, r.retained)
                << label << " epoch " << epoch;
            EXPECT_EQ(f.evicted, r.evicted)
                << label << " epoch " << epoch;
            EXPECT_EQ(f.allocated, r.allocated)
                << label << " epoch " << epoch;
            ASSERT_EQ(flat.size(), reference.size()) << label;
            flat.checkInvariants();
            reference.checkInvariants();

            auto f_contents = flat.contents();
            auto r_contents = reference.contents();
            std::sort(f_contents.begin(), f_contents.end());
            std::sort(r_contents.begin(), r_contents.end());
            ASSERT_EQ(f_contents, r_contents) << label;
        }
    }
}

// ---- fabric-specific properties -----------------------------------

TEST(PolicyFabric, ArcAdaptationStaysWithinBounds)
{
    // Adversarial alternation between a recency-friendly loop and a
    // frequency-friendly hot set pushes p in both directions; it must
    // never leave [0, capacity] and the ghost directories must never
    // exceed their budgets (checkInvariants audits both).
    const uint64_t capacity = 32;
    ReferenceArcPolicy probe(capacity);
    BlockCache flat(capacity, EvictionSpec{EvictionKind::Arc, 1});
    BlockCache reference(
        capacity,
        makeReferencePolicy({EvictionKind::Arc, 1}, capacity));
    Rng rng(2024);
    for (int op = 0; op < 40000; ++op) {
        const bool loop_phase = (op / 2000) % 2 == 0;
        const BlockId b = loop_phase
                              ? static_cast<uint64_t>(op) % (capacity + 8)
                              : (1000 + rng.nextBelow(capacity / 2));
        for (BlockCache *c : {&flat, &reference}) {
            if (!c->access(b))
                c->insert(b);
        }
        if (!probe.contains(b)) {
            if (probe.size() >= capacity) {
                const BlockId v = probe.victimFor(b);
                probe.onErase(v);
            }
            probe.onInsert(b);
        } else {
            probe.onAccess(b);
        }
        ASSERT_LE(probe.target(), capacity) << "op " << op;
        ASSERT_LE(probe.ghostRecencySize(), capacity) << "op " << op;
        ASSERT_LE(probe.ghostFrequencySize(), capacity) << "op " << op;
        if (op % 512 == 0) {
            flat.checkInvariants();
            reference.checkInvariants();
        }
    }
    flat.checkInvariants();
    reference.checkInvariants();
}

TEST(PolicyFabric, SieveHitsNeverMoveBlocksAndScanResists)
{
    // One-hit-wonder scan over a hot working set: SIEVE must keep the
    // visited hot set resident while the scan flows through.
    const uint64_t capacity = 64;
    BlockCache cache(capacity, EvictionSpec{EvictionKind::Sieve, 1});
    for (BlockId b = 0; b < capacity; ++b)
        cache.insert(b);
    for (int round = 0; round < 3; ++round)
        for (BlockId b = 0; b < 16; ++b)
            ASSERT_TRUE(cache.access(b));
    for (BlockId scan = 1000; scan < 1000 + 200; ++scan) {
        if (!cache.access(scan))
            cache.insert(scan);
    }
    for (BlockId b = 0; b < 16; ++b)
        EXPECT_TRUE(cache.contains(b)) << "hot block " << b;
    cache.checkInvariants();
}

TEST(PolicyFabric, TinyLfuAdmissionBlocksOneHitWonders)
{
    // A frequently-hit main region must not be displaced by a
    // one-pass scan: the sketch rejects the window victims.
    const uint64_t capacity = 128;
    BlockCache cache(capacity, EvictionSpec{EvictionKind::TinyLfu, 1});
    for (BlockId b = 0; b < capacity; ++b)
        cache.insert(b);
    for (int round = 0; round < 8; ++round)
        for (BlockId b = 0; b < 64; ++b)
            cache.access(b);
    uint64_t hot_survivors_before = 0;
    for (BlockId b = 0; b < 64; ++b)
        hot_survivors_before += cache.contains(b) ? 1u : 0u;
    for (BlockId scan = 5000; scan < 5000 + 400; ++scan) {
        if (!cache.access(scan))
            cache.insert(scan);
    }
    uint64_t hot_survivors_after = 0;
    for (BlockId b = 0; b < 64; ++b)
        hot_survivors_after += cache.contains(b) ? 1u : 0u;
    EXPECT_GE(hot_survivors_after, hot_survivors_before * 3 / 4)
        << "scan displaced the frequent working set";
    cache.checkInvariants();
}

// ---- appliance-level ----------------------------------------------

/** Field-for-field equality of one day's report. */
void
expectReportEq(const DailyReport &flat, const DailyReport &reference,
               const std::string &where)
{
    EXPECT_EQ(flat.accesses, reference.accesses) << where;
    EXPECT_EQ(flat.read_accesses, reference.read_accesses) << where;
    EXPECT_EQ(flat.hits, reference.hits) << where;
    EXPECT_EQ(flat.read_hits, reference.read_hits) << where;
    EXPECT_EQ(flat.write_hits, reference.write_hits) << where;
    EXPECT_EQ(flat.allocation_write_blocks,
              reference.allocation_write_blocks)
        << where;
    EXPECT_EQ(flat.batch_moved_blocks, reference.batch_moved_blocks)
        << where;
    EXPECT_EQ(flat.ssd_read_ios, reference.ssd_read_ios) << where;
    EXPECT_EQ(flat.ssd_write_ios, reference.ssd_write_ios) << where;
    EXPECT_EQ(flat.ssd_alloc_ios, reference.ssd_alloc_ios) << where;
    EXPECT_EQ(flat.tune_t1, reference.tune_t1) << where;
    EXPECT_EQ(flat.tune_t2, reference.tune_t2) << where;
    EXPECT_EQ(flat.tune_switches, reference.tune_switches) << where;
}

/** A multi-day random trace with hot runs and a cold tail. */
std::vector<trace::Request>
randomTrace(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<trace::Request> reqs;
    uint64_t t = 0;
    for (size_t i = 0; i < n; ++i) {
        trace::Request r;
        t += rng.nextBelow(120 * 1000000); // ~3.5 simulated days total
        r.time = t;
        r.volume = static_cast<trace::VolumeId>(rng.nextBelow(4));
        r.server = static_cast<trace::ServerId>(rng.nextBelow(3));
        r.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        r.offset_blocks = rng.nextBool(0.5)
                              ? rng.nextBelow(64) * 8
                              : rng.nextBelow(1 << 18);
        r.length_blocks = 1 + static_cast<uint32_t>(rng.nextBelow(32));
        r.latency_us = static_cast<uint32_t>(rng.nextBelow(5000000));
        reqs.push_back(r);
    }
    return reqs;
}

/**
 * The fabric acceptance matrix: each new eviction kind × {AOD, WMNA,
 * SieveStore-C, SieveStore-D}, flat engine vs reference engine, with
 * per-day reports compared field for field.
 */
TEST(PolicyFabric, ApplianceReportsMatchAcrossPolicyMatrix)
{
    const sim::PolicyKind policies[] = {
        sim::PolicyKind::AOD, sim::PolicyKind::WMNA,
        sim::PolicyKind::SieveStoreC, sim::PolicyKind::SieveStoreD};
    const auto reqs = randomTrace(99, 4000);

    for (const EvictionKind kind : kFabricKinds) {
        for (const sim::PolicyKind pk : policies) {
            const EvictionSpec spec{kind, 21};
            sim::PolicyConfig policy;
            policy.kind = pk;
            policy.adba_threshold = 3;
            policy.sieve_c.imct_slots = 1 << 12;

            core::ApplianceConfig flat_cfg;
            flat_cfg.cache_blocks = 512;
            flat_cfg.track_occupancy = true;
            flat_cfg.eviction = spec;
            core::ApplianceConfig ref_cfg = flat_cfg;
            ref_cfg.replacement = [spec] {
                return makeReferencePolicy(spec, 512);
            };

            auto flat_app = sim::makeAppliance(policy, flat_cfg);
            auto ref_app = sim::makeAppliance(policy, ref_cfg);

            trace::VectorTrace flat_trace(reqs);
            sim::runTrace(flat_trace, *flat_app);
            trace::VectorTrace ref_trace(reqs);
            sim::runTrace(ref_trace, *ref_app);

            const std::string label =
                std::string(evictionKindName(kind)) + " x " +
                sim::policyKindName(pk);
            const auto &fd = flat_app->daily();
            const auto &rd = ref_app->daily();
            ASSERT_EQ(fd.size(), rd.size()) << label;
            ASSERT_GE(fd.size(), 2u)
                << label << ": trace must span multiple days";
            for (size_t d = 0; d < fd.size(); ++d)
                expectReportEq(fd[d], rd[d],
                               label + " day " + std::to_string(d));
            expectReportEq(flat_app->totals(), ref_app->totals(),
                           label + " totals");
            flat_app->checkInvariants();
            ref_app->checkInvariants();
        }
    }
}

// ---- sharded parallel replay --------------------------------------

/**
 * The acceptance-bar run: SIEVE/ARC/TinyLFU end-to-end through
 * runShardedParallel at batch=64, against the serial batch=1 golden —
 * ghost state is per-shard and must not leak across the parallel
 * hand-off.
 */
TEST(PolicyFabric, ShardedParallelBatch64MatchesSerialBatch1)
{
    for (const EvictionKind kind : kFabricKinds) {
        trace::SyntheticConfig scfg;
        scfg.seed = 0x9a0 + static_cast<uint64_t>(kind);
        scfg.scale = 1.0 / 131072.0;
        auto gen = trace::SyntheticEnsembleGenerator::paper(
            trace::EnsembleConfig::paperEnsemble(), scfg);

        sim::ShardedConfig cfg;
        cfg.shards = 4;
        cfg.policy.kind = sim::PolicyKind::SieveStoreC;
        cfg.policy.sieve_c.imct_slots = 1 << 12;
        cfg.node.cache_blocks = 2048 / cfg.shards + 64;
        cfg.node.track_occupancy = false;
        cfg.node.eviction = EvictionSpec{kind, 9};

        sim::ShardedConfig serial_cfg = cfg;
        serial_cfg.batch = 1;
        gen.reset();
        const sim::ShardedResult serial =
            sim::runSharded(gen, serial_cfg);

        sim::ShardedConfig parallel_cfg = cfg;
        parallel_cfg.batch = 64;
        gen.reset();
        const sim::ShardedResult parallel =
            sim::runShardedParallel(gen, parallel_cfg);

        const std::string label = evictionKindName(kind);
        ASSERT_EQ(serial.nodes.size(), parallel.nodes.size()) << label;
        for (size_t s = 0; s < serial.nodes.size(); ++s) {
            const auto &sd = serial.nodes[s]->daily();
            const auto &pd = parallel.nodes[s]->daily();
            ASSERT_EQ(sd.size(), pd.size())
                << label << " shard " << s;
            for (size_t d = 0; d < sd.size(); ++d)
                expectReportEq(sd[d], pd[d],
                               label + " shard " + std::to_string(s) +
                                   " day " + std::to_string(d));
        }
        expectReportEq(serial.totals(), parallel.totals(),
                       label + " totals");
    }
}

/**
 * The adaptive sieve through the same sharded gauntlet: each shard
 * carries its own shadow candidates and ghost caches, day closes
 * switch thresholds per shard, and the parallel batch=64 replay must
 * reproduce the serial batch=1 tuning trajectory (tune_* columns
 * included) bit for bit.
 */
TEST(PolicyFabric, AdaptiveSieveShardedParallelMatchesSerial)
{
    trace::SyntheticConfig scfg;
    scfg.seed = 0xada;
    scfg.scale = 1.0 / 131072.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), scfg);

    sim::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.policy.kind = sim::PolicyKind::Adaptive;
    cfg.policy.sieve_c.imct_slots = 1 << 12;
    cfg.policy.sieve_c.t1 = 4;
    cfg.policy.sieve_c.t2 = 2;
    cfg.policy.adaptive.imct_slots = 1 << 10;
    cfg.policy.adaptive.ghost_budget = 512;
    cfg.node.cache_blocks = 2048 / cfg.shards + 64;
    cfg.node.track_occupancy = false;

    sim::ShardedConfig serial_cfg = cfg;
    serial_cfg.batch = 1;
    gen.reset();
    const sim::ShardedResult serial = sim::runSharded(gen, serial_cfg);

    sim::ShardedConfig parallel_cfg = cfg;
    parallel_cfg.batch = 64;
    gen.reset();
    const sim::ShardedResult parallel =
        sim::runShardedParallel(gen, parallel_cfg);

    ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
    bool any_tuning = false;
    for (size_t s = 0; s < serial.nodes.size(); ++s) {
        const auto &sd = serial.nodes[s]->daily();
        const auto &pd = parallel.nodes[s]->daily();
        ASSERT_EQ(sd.size(), pd.size()) << "shard " << s;
        for (size_t d = 0; d < sd.size(); ++d) {
            expectReportEq(sd[d], pd[d],
                           "adaptive shard " + std::to_string(s) +
                               " day " + std::to_string(d));
            any_tuning = any_tuning || sd[d].tune_t1 != 0;
        }
        serial.nodes[s]->checkInvariants();
        parallel.nodes[s]->checkInvariants();
    }
    EXPECT_TRUE(any_tuning)
        << "no shard ever reported its tuned thresholds";
    expectReportEq(serial.totals(), parallel.totals(),
                   "adaptive totals");
}

} // namespace

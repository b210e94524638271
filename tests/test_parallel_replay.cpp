/**
 * @file
 * Differential tests for the replay engine's worker threads.
 *
 * runSharded and runShardedParallel are the same engine (sim::replay)
 * without and with workers, and the worker path rests on one claim:
 * for every configuration, every node's per-day accounting is
 * *bit-identical* to what the calling-thread path produces — a silent
 * counter divergence in a parallel driver would be a wrong paper
 * claim, not a crash. These tests sweep the policy roster × shard
 * counts × generator seeds and compare every field of every
 * DailyReport, plus the summed totals, between the two drivers.
 * Threading knobs (fewer workers than shards, tiny queues forcing
 * backpressure, more threads than shards) must not change a single
 * bit either.
 */

#include <vector>

#include <gtest/gtest.h>

#include "sim/driver.hpp"
#include "sim/sharded.hpp"
#include "trace/synthetic.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::sim;
using namespace sievestore::trace;
using core::DailyReport;
using sievestore::util::FatalError;
using sievestore::util::makeTime;

/** Field-for-field equality of one day's report. */
void
expectReportEq(const DailyReport &serial, const DailyReport &parallel,
               const std::string &where)
{
    static_assert(sizeof(DailyReport) == 19 * sizeof(uint64_t),
                  "a new DailyReport field needs a line below");
    EXPECT_EQ(serial.accesses, parallel.accesses) << where;
    EXPECT_EQ(serial.read_accesses, parallel.read_accesses) << where;
    EXPECT_EQ(serial.hits, parallel.hits) << where;
    EXPECT_EQ(serial.read_hits, parallel.read_hits) << where;
    EXPECT_EQ(serial.write_hits, parallel.write_hits) << where;
    EXPECT_EQ(serial.allocation_write_blocks,
              parallel.allocation_write_blocks)
        << where;
    EXPECT_EQ(serial.batch_moved_blocks, parallel.batch_moved_blocks)
        << where;
    EXPECT_EQ(serial.ssd_read_ios, parallel.ssd_read_ios) << where;
    EXPECT_EQ(serial.ssd_write_ios, parallel.ssd_write_ios) << where;
    EXPECT_EQ(serial.ssd_alloc_ios, parallel.ssd_alloc_ios) << where;
    EXPECT_EQ(serial.tune_t1, parallel.tune_t1) << where;
    EXPECT_EQ(serial.tune_t2, parallel.tune_t2) << where;
    EXPECT_EQ(serial.tune_switches, parallel.tune_switches) << where;
    EXPECT_EQ(serial.storage_read_ios, parallel.storage_read_ios)
        << where;
    EXPECT_EQ(serial.storage_write_ios, parallel.storage_write_ios)
        << where;
    EXPECT_EQ(serial.storage_read_errors, parallel.storage_read_errors)
        << where;
    EXPECT_EQ(serial.storage_write_errors,
              parallel.storage_write_errors)
        << where;
    EXPECT_EQ(serial.storage_read_ns, parallel.storage_read_ns) << where;
    EXPECT_EQ(serial.storage_write_ns, parallel.storage_write_ns)
        << where;
}

/**
 * Run both drivers over the same trace and require bit-identical
 * per-node day-by-day reports and summed totals.
 */
void
expectBitIdentical(TraceReader &reader, const ShardedConfig &config,
                   const std::string &label)
{
    reader.reset();
    const ShardedResult serial = runSharded(reader, config);
    reader.reset();
    const ShardedResult parallel = runShardedParallel(reader, config);
    reader.reset();

    ASSERT_EQ(serial.nodes.size(), parallel.nodes.size()) << label;
    for (size_t s = 0; s < serial.nodes.size(); ++s) {
        const auto &sd = serial.nodes[s]->daily();
        const auto &pd = parallel.nodes[s]->daily();
        ASSERT_EQ(sd.size(), pd.size())
            << label << " shard " << s << " day count";
        for (size_t d = 0; d < sd.size(); ++d)
            expectReportEq(sd[d], pd[d],
                           label + " shard " + std::to_string(s) +
                               " day " + std::to_string(d));
    }
    expectReportEq(serial.totals(), parallel.totals(),
                   label + " totals");
}

SyntheticEnsembleGenerator
makeGenerator(uint64_t seed, double inv_scale)
{
    SyntheticConfig scfg;
    scfg.seed = seed;
    scfg.scale = 1.0 / inv_scale;
    return SyntheticEnsembleGenerator::paper(
        EnsembleConfig::paperEnsemble(), scfg);
}

ShardedConfig
makeConfig(PolicyKind kind, size_t shards)
{
    ShardedConfig cfg;
    cfg.shards = shards;
    cfg.policy.kind = kind;
    cfg.policy.sieve_c.imct_slots = 1 << 12;
    cfg.node.cache_blocks = 2048 / shards + 64;
    cfg.node.track_occupancy = false;
    return cfg;
}

/**
 * The headline sweep: every continuous/discrete policy of the paper's
 * roster × {1, 2, 4, 7} shards × 3 generator seeds.
 */
TEST(ParallelReplay, DifferentialSweepMatchesSerialBitForBit)
{
    const PolicyKind kinds[] = {
        PolicyKind::AOD, PolicyKind::WMNA, PolicyKind::SieveStoreC,
        PolicyKind::SieveStoreD, PolicyKind::RandSieveC};
    const size_t shard_counts[] = {1, 2, 4, 7};
    const uint64_t seeds[] = {0x51e5e5704eULL, 1234567ULL,
                              0xdecafULL};

    for (const uint64_t seed : seeds) {
        auto gen = makeGenerator(seed, 131072.0);
        for (const PolicyKind kind : kinds) {
            for (const size_t shards : shard_counts) {
                const std::string label =
                    std::string(policyKindName(kind)) + " x " +
                    std::to_string(shards) + " shards, seed " +
                    std::to_string(seed);
                expectBitIdentical(gen, makeConfig(kind, shards),
                                   label);
            }
        }
    }
}

TEST(ParallelReplay, FewerThreadsThanShardsIsStillIdentical)
{
    auto gen = makeGenerator(99, 65536.0);
    ShardedConfig cfg = makeConfig(PolicyKind::SieveStoreC, 7);
    cfg.parallel.threads = 2; // each worker multiplexes 3-4 queues
    expectBitIdentical(gen, cfg, "7 shards on 2 workers");
    cfg.parallel.threads = 3;
    expectBitIdentical(gen, cfg, "7 shards on 3 workers");
}

TEST(ParallelReplay, TinyQueuesForceBackpressureNotDivergence)
{
    auto gen = makeGenerator(7, 65536.0);
    ShardedConfig cfg = makeConfig(PolicyKind::SieveStoreD, 4);
    cfg.parallel.queue_depth = 2; // constant full-queue stalls
    expectBitIdentical(gen, cfg, "queue_depth=2");
}

TEST(ParallelReplay, OversubscribedThreadCountIsClamped)
{
    auto gen = makeGenerator(23, 131072.0);
    ShardedConfig cfg = makeConfig(PolicyKind::AOD, 2);
    cfg.parallel.threads = 64; // clamped to the shard count
    expectBitIdentical(gen, cfg, "threads=64, shards=2");
}

TEST(ParallelReplay, EmptyTraceFinishesCleanly)
{
    VectorTrace empty{std::vector<Request>{}};
    const auto result =
        runShardedParallel(empty, makeConfig(PolicyKind::AOD, 4));
    ASSERT_EQ(result.nodes.size(), 4u);
    EXPECT_EQ(result.totals().accesses, 0u);
    for (const auto &node : result.nodes)
        EXPECT_EQ(node->lastFinishedDay(), INT_MIN);
}

TEST(ParallelReplay, MultiDayGapFiresEveryBoundaryOnEveryShard)
{
    // One request on day 0, one on day 3: days 0-2 must be closed on
    // every shard (idle shards still run their epoch boundaries).
    std::vector<Request> reqs;
    Request r;
    r.volume = 0;
    r.server = 0;
    r.op = Op::Read;
    r.latency_us = 1000;
    r.time = makeTime(0, 12);
    r.offset_blocks = 0;
    r.length_blocks = 8;
    reqs.push_back(r);
    r.time = makeTime(3, 12);
    r.offset_blocks = 64;
    reqs.push_back(r);
    VectorTrace tracev(reqs);

    ShardedConfig cfg = makeConfig(PolicyKind::SieveStoreD, 3);
    expectBitIdentical(tracev, cfg, "3-day gap");

    tracev.reset();
    const auto result = runShardedParallel(tracev, cfg);
    for (const auto &node : result.nodes)
        EXPECT_EQ(node->lastFinishedDay(), 2);
}

TEST(ParallelReplay, BatchSizeSweepIsBitIdentical)
{
    // The decode/hand-off batch size is a pure performance knob: the
    // serial golden at batch=1 pins every other batch size, including
    // sizes above the per-item cap (spanning several queue items) and
    // sizes that leave most of each item unused.
    auto gen = makeGenerator(47, 65536.0);
    ShardedConfig golden_cfg = makeConfig(PolicyKind::SieveStoreC, 4);
    golden_cfg.batch = 1;
    gen.reset();
    const ShardedResult golden = runSharded(gen, golden_cfg);

    for (const size_t batch :
         {size_t(1), size_t(8), kQueueBatchRequests,
          4 * kQueueBatchRequests}) {
        ShardedConfig cfg = golden_cfg;
        cfg.batch = batch;
        gen.reset();
        const ShardedResult parallel = runShardedParallel(gen, cfg);
        const std::string label = "batch=" + std::to_string(batch);
        ASSERT_EQ(golden.nodes.size(), parallel.nodes.size()) << label;
        for (size_t s = 0; s < golden.nodes.size(); ++s) {
            const auto &gd = golden.nodes[s]->daily();
            const auto &pd = parallel.nodes[s]->daily();
            ASSERT_EQ(gd.size(), pd.size()) << label << " shard " << s;
            for (size_t d = 0; d < gd.size(); ++d)
                expectReportEq(gd[d], pd[d],
                               label + " shard " + std::to_string(s) +
                                   " day " + std::to_string(d));
        }
        expectReportEq(golden.totals(), parallel.totals(),
                       label + " totals");
    }
}

TEST(ParallelReplay, RejectsBadConfig)
{
    VectorTrace empty{std::vector<Request>{}};
    ShardedConfig zero = makeConfig(PolicyKind::AOD, 1);
    zero.shards = 0;
    EXPECT_THROW(runShardedParallel(empty, zero), FatalError);
    ShardedConfig oracle = makeConfig(PolicyKind::AOD, 2);
    oracle.policy.kind = PolicyKind::Ideal;
    EXPECT_THROW(runShardedParallel(empty, oracle), FatalError);
    ShardedConfig no_queue = makeConfig(PolicyKind::AOD, 2);
    no_queue.parallel.queue_depth = 0;
    EXPECT_THROW(runShardedParallel(empty, no_queue), FatalError);
}

} // namespace

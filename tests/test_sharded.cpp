/**
 * @file
 * Unit tests for the sharded multi-node deployment (Section 7
 * "scaling").
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/driver.hpp"
#include "sim/per_server.hpp"
#include "sim/sharded.hpp"
#include "storage/analytic_backend.hpp"
#include "trace/synthetic.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::sim;
using namespace sievestore::trace;
using sievestore::util::FatalError;
using sievestore::util::makeTime;

Request
makeRequest(uint64_t time, uint64_t offset, uint32_t len,
            Op op = Op::Read)
{
    Request r;
    r.time = time;
    r.volume = 0;
    r.server = 0;
    r.op = op;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = 1000;
    return r;
}

ShardedConfig
config(size_t shards)
{
    ShardedConfig cfg;
    cfg.shards = shards;
    cfg.policy.kind = PolicyKind::AOD;
    cfg.node.cache_blocks = 1024;
    cfg.node.track_occupancy = false;
    return cfg;
}

TEST(ShardOf, StableAndPageGranular)
{
    // Blocks of one 4 KB page always land on the same shard.
    for (uint64_t page = 0; page < 100; ++page) {
        const size_t shard =
            shardOf(makeBlockId(3, page * 8), 4, 0);
        for (uint64_t b = 1; b < 8; ++b)
            EXPECT_EQ(shardOf(makeBlockId(3, page * 8 + b), 4, 0),
                      shard);
    }
}

TEST(ShardOf, PropertyPageNeverStraddlesNodes)
{
    // For random volumes, block numbers, shard counts and hash seeds:
    // all 8 blocks of a 4 KB page map to one shard (the property the
    // sharded SSD I/O accounting depends on).
    util::Rng rng(0x9a6eULL);
    for (int trial = 0; trial < 20000; ++trial) {
        const VolumeId vol =
            static_cast<VolumeId>(rng.nextBelow(1 << 16));
        const uint64_t page = rng.nextBelow(1ULL << 40);
        const size_t shards = 1 + rng.nextBelow(64);
        const uint64_t seed = rng.next();
        const size_t shard =
            shardOf(makeBlockId(vol, page * 8), shards, seed);
        ASSERT_LT(shard, shards);
        for (uint64_t b = 1; b < 8; ++b)
            ASSERT_EQ(shardOf(makeBlockId(vol, page * 8 + b),
                              shards, seed),
                      shard)
                << "vol " << vol << " page " << page << " shards "
                << shards << " seed " << seed;
    }
}

TEST(ShardOf, PropertyLoadImbalanceBoundedOnUniformSample)
{
    // Documented bound: hashing a uniform 100k-page sample across
    // 2..16 shards keeps max/mean page load under 1.05 for every
    // seed tried. (The bench-scale request imbalance in
    // bench_sec7_scaling_tuning stays within a few percent of 1.0;
    // this pins the hash-quality half of that claim.)
    for (const uint64_t seed : {0ULL, 1ULL, 0xfeedULL}) {
        for (const size_t shards : {size_t(2), size_t(4), size_t(7),
                                    size_t(16)}) {
            std::vector<uint64_t> counts(shards, 0);
            const uint64_t pages = 100000;
            for (uint64_t page = 0; page < pages; ++page)
                ++counts[shardOf(makeBlockId(2, page * 8), shards,
                                 seed)];
            uint64_t worst = 0;
            for (const uint64_t c : counts)
                worst = std::max(worst, c);
            const double mean = static_cast<double>(pages) /
                                static_cast<double>(shards);
            EXPECT_LT(static_cast<double>(worst) / mean, 1.05)
                << shards << " shards, seed " << seed;
        }
    }
}

TEST(ShardOf, SpreadsPagesEvenly)
{
    std::vector<int> counts(4, 0);
    for (uint64_t page = 0; page < 40000; ++page)
        ++counts[shardOf(makeBlockId(1, page * 8), 4, 0)];
    for (int c : counts) {
        EXPECT_GT(c, 9000);
        EXPECT_LT(c, 11000);
    }
}

TEST(Sharded, AccessesArePartitionedExactly)
{
    std::vector<Request> reqs = {
        makeRequest(1000, 0, 64),  // 8 pages
        makeRequest(2000, 64, 32), // 4 pages
    };
    VectorTrace trace(std::move(reqs));
    const auto result = runSharded(trace, config(3));
    ASSERT_EQ(result.nodes.size(), 3u);
    EXPECT_EQ(result.totals().accesses, 96u);
}

/** Every DailyReport field, day by day. */
void
expectSameDays(const std::vector<core::DailyReport> &want,
               const std::vector<core::DailyReport> &got,
               const std::string &label)
{
    static_assert(sizeof(core::DailyReport) == 19 * sizeof(uint64_t),
                  "a new DailyReport field needs a line below");
    ASSERT_EQ(want.size(), got.size()) << label << " day count";
    for (size_t d = 0; d < want.size(); ++d) {
        const core::DailyReport &w = want[d];
        const core::DailyReport &g = got[d];
        const std::string at = label + " day " + std::to_string(d);
        EXPECT_EQ(w.accesses, g.accesses) << at;
        EXPECT_EQ(w.read_accesses, g.read_accesses) << at;
        EXPECT_EQ(w.hits, g.hits) << at;
        EXPECT_EQ(w.read_hits, g.read_hits) << at;
        EXPECT_EQ(w.write_hits, g.write_hits) << at;
        EXPECT_EQ(w.allocation_write_blocks, g.allocation_write_blocks)
            << at;
        EXPECT_EQ(w.batch_moved_blocks, g.batch_moved_blocks) << at;
        EXPECT_EQ(w.ssd_read_ios, g.ssd_read_ios) << at;
        EXPECT_EQ(w.ssd_write_ios, g.ssd_write_ios) << at;
        EXPECT_EQ(w.ssd_alloc_ios, g.ssd_alloc_ios) << at;
        EXPECT_EQ(w.tune_t1, g.tune_t1) << at;
        EXPECT_EQ(w.tune_t2, g.tune_t2) << at;
        EXPECT_EQ(w.tune_switches, g.tune_switches) << at;
        EXPECT_EQ(w.storage_read_ios, g.storage_read_ios) << at;
        EXPECT_EQ(w.storage_write_ios, g.storage_write_ios) << at;
        EXPECT_EQ(w.storage_read_errors, g.storage_read_errors) << at;
        EXPECT_EQ(w.storage_write_errors, g.storage_write_errors) << at;
        EXPECT_EQ(w.storage_read_ns, g.storage_read_ns) << at;
        EXPECT_EQ(w.storage_write_ns, g.storage_write_ns) << at;
    }
}

/** One node's daily reports from each driver over the same trace. */
struct OneNodeRuns
{
    std::vector<core::DailyReport> trace, sharded, parallel, per_server;
};

/**
 * Replay `reqs` through runTrace, runSharded and runShardedParallel at
 * one shard, and runPerServer with one server: four ways to build
 * and feed the same single node.
 */
OneNodeRuns
replayOneNode(const std::vector<Request> &reqs, PolicyKind kind)
{
    PolicyConfig pc;
    pc.kind = kind;
    pc.sieve_c.imct_slots = 1 << 12;
    core::ApplianceConfig ac;
    ac.cache_blocks = 4096;
    ac.track_occupancy = false;

    OneNodeRuns runs;
    VectorTrace trace(reqs);
    const auto plain = makeAppliance(pc, ac);
    runTrace(trace, *plain);
    runs.trace = plain->daily();

    ShardedConfig sc = config(1);
    sc.policy = pc;
    sc.node = ac;
    trace.reset();
    runs.sharded = runSharded(trace, sc).nodes.at(0)->daily();
    trace.reset();
    runs.parallel = runShardedParallel(trace, sc).nodes.at(0)->daily();

    PerServerConfig psc;
    psc.capacities_blocks = {ac.cache_blocks};
    psc.policy = pc;
    psc.base = ac;
    trace.reset();
    runs.per_server = runPerServer(trace, psc).per_server.at(0);
    return runs;
}

TEST(Sharded, SingleShardMatchesUnshardedAppliance)
{
    // With one node and one server, no driver splits or reroutes a
    // request: all four must feed that node runTrace's stream and
    // day boundaries, so every report field matches day by day.
    SyntheticConfig scfg;
    scfg.scale = 1.0 / 65536.0;
    auto gen = SyntheticEnsembleGenerator::paper(
        EnsembleConfig::paperEnsemble(), scfg);
    std::vector<Request> reqs = drain(gen);
    for (Request &r : reqs)
        r.server = 0;

    for (const PolicyKind kind :
         {PolicyKind::AOD, PolicyKind::SieveStoreC,
          PolicyKind::SieveStoreD}) {
        const std::string name = policyKindName(kind);
        const OneNodeRuns runs = replayOneNode(reqs, kind);
        ASSERT_GT(runs.trace.size(), 1u) << name;
        EXPECT_GT(core::sumReports(runs.trace).hits, 0u) << name;
        expectSameDays(runs.trace, runs.sharded, name + " runSharded");
        expectSameDays(runs.trace, runs.parallel,
                       name + " runShardedParallel");
        expectSameDays(runs.trace, runs.per_server,
                       name + " runPerServer");
    }
}

TEST(Sharded, ZeroLengthRequestAloneOnTheLastDay)
{
    // runTrace and runPerServer hand a zero-length request to the
    // node whole, which opens a report for its day; the page split
    // drops it, so the sharded node never sees that day. Every driver
    // still closes the days before it.
    const std::vector<Request> reqs = {
        makeRequest(makeTime(0, 1), 0, 64),
        makeRequest(makeTime(1, 1), 0, 64),
        makeRequest(makeTime(3, 1), 512, 0),
    };
    const OneNodeRuns runs = replayOneNode(reqs, PolicyKind::AOD);
    ASSERT_EQ(runs.trace.size(), 4u);
    EXPECT_EQ(runs.trace[1].hits, 64u);
    expectSameDays({core::DailyReport{}, core::DailyReport{}},
                   {runs.trace.begin() + 2, runs.trace.end()},
                   "runTrace days 2-3");
    expectSameDays(runs.trace, runs.per_server, "runPerServer");

    const std::vector<core::DailyReport> before(runs.trace.begin(),
                                                runs.trace.begin() + 2);
    expectSameDays(before, runs.sharded, "runSharded");
    expectSameDays(before, runs.parallel, "runShardedParallel");
}

TEST(Sharded, HitRatioStableAcrossShardCounts)
{
    // The ensemble-sharing property: hash-partitioning the block space
    // splits the hot set evenly, so N shards of capacity C/N capture
    // roughly what one node of capacity C captures.
    SyntheticConfig scfg;
    scfg.scale = 1.0 / 32768.0;
    const auto ensemble = EnsembleConfig::paperEnsemble();
    auto gen = SyntheticEnsembleGenerator::paper(ensemble, scfg);

    const uint64_t total_blocks = 2048;
    double base_ratio = 0.0;
    for (size_t shards : {size_t(1), size_t(2), size_t(4)}) {
        ShardedConfig cfg = config(shards);
        cfg.policy.kind = PolicyKind::SieveStoreC;
        cfg.policy.sieve_c.imct_slots = 1 << 14;
        cfg.node.cache_blocks = total_blocks / shards;
        gen.reset();
        const auto result = runSharded(gen, cfg);
        const double ratio = result.totals().hitRatio();
        if (shards == 1)
            base_ratio = ratio;
        else
            EXPECT_NEAR(ratio, base_ratio, 0.05)
                << shards << " shards";
    }
    gen.reset();
}

TEST(Sharded, LoadSpreadsAcrossNodes)
{
    SyntheticConfig scfg;
    scfg.scale = 1.0 / 65536.0;
    const auto ensemble = EnsembleConfig::paperEnsemble();
    auto gen = SyntheticEnsembleGenerator::paper(ensemble, scfg);
    const auto result = runSharded(gen, config(4));
    // At this tiny scale the hot set is a few dozen pages, so a single
    // giant page skews its shard; just require that no node is idle
    // and the worst node stays within 2x of the mean (at bench scales
    // the imbalance is a few percent).
    EXPECT_LT(result.loadImbalance(), 2.0);
    for (const auto &node : result.nodes)
        EXPECT_GT(node->totals().accesses, 0u);
}

TEST(Sharded, RejectsBadConfig)
{
    VectorTrace trace(std::vector<Request>{});
    auto zero = config(0);
    EXPECT_THROW(runSharded(trace, zero), FatalError);
    auto oracle = config(2);
    oracle.policy.kind = PolicyKind::Ideal;
    EXPECT_THROW(runSharded(trace, oracle), FatalError);
}

TEST(Sharded, MeasuredStorageColumnsSumExactly)
{
    // Two-day trace across 3 nodes: the ensemble totals() fold must
    // equal the field-wise sum of per-node totals for every measured
    // storage column, and under the default AnalyticBackend each
    // node's measured latency is exactly ios * model service time.
    std::vector<Request> reqs = {
        makeRequest(makeTime(0, 1), 0, 64),
        makeRequest(makeTime(0, 2), 64, 32, Op::Write),
        makeRequest(makeTime(1, 1), 0, 64),
        makeRequest(makeTime(1, 2), 128, 32),
    };
    VectorTrace trace(std::move(reqs));
    const auto cfg = config(3);
    const auto result = runSharded(trace, cfg);
    const auto total = result.totals();
    EXPECT_GT(total.storage_read_ios + total.storage_write_ios, 0u);
    uint64_t read_ios = 0, write_ios = 0, read_errs = 0,
             write_errs = 0, read_ns = 0, write_ns = 0;
    const uint32_t model_read_ns =
        storage::modelServiceNs(cfg.node.ssd.readService());
    const uint32_t model_write_ns =
        storage::modelServiceNs(cfg.node.ssd.writeService());
    for (const auto &node : result.nodes) {
        const auto t = node->totals();
        read_ios += t.storage_read_ios;
        write_ios += t.storage_write_ios;
        read_errs += t.storage_read_errors;
        write_errs += t.storage_write_errors;
        read_ns += t.storage_read_ns;
        write_ns += t.storage_write_ns;
        EXPECT_EQ(t.storage_read_ns,
                  t.storage_read_ios * model_read_ns);
        EXPECT_EQ(t.storage_write_ns,
                  t.storage_write_ios * model_write_ns);
        // Per-node day barriers do not double-count either.
        core::DailyReport sum;
        for (const auto &day : node->daily())
            sum.add(day);
        EXPECT_EQ(sum.storage_read_ios, t.storage_read_ios);
        EXPECT_EQ(sum.storage_write_ns, t.storage_write_ns);
    }
    EXPECT_EQ(total.storage_read_ios, read_ios);
    EXPECT_EQ(total.storage_write_ios, write_ios);
    EXPECT_EQ(total.storage_read_errors, read_errs);
    EXPECT_EQ(total.storage_write_errors, write_errs);
    EXPECT_EQ(total.storage_read_ns, read_ns);
    EXPECT_EQ(total.storage_write_ns, write_ns);
}

} // namespace

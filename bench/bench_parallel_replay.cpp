/**
 * @file
 * Parallel replay throughput: the simulator as a measurement
 * instrument must replay traces faster than one core allows before
 * trace scale can grow (ROADMAP north star; cloud block-trace studies
 * replay orders of magnitude more requests than our scaled default).
 *
 * Replays the same materialized trace through runSharded and
 * runShardedParallel (the one replay engine, sim::replay, without and
 * with worker threads; the day barrier always runs) at increasing
 * shard counts, reporting requests/second, speedup over serial, and
 * scaling efficiency (speedup / usable cores). Every parallel run's
 * DailyReports are checked field for field, node by node and day by
 * day, against the serial run's — throughput numbers from a
 * diverging driver would be meaningless. Rows whose threads (shard
 * workers + the reader) outnumber the hardware threads are marked
 * oversubscribed: their speedup measures time-slicing, not scaling.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/sharded.hpp"
#include "stats/table.hpp"
#include "trace/trace_reader.hpp"
#include "util/check.hpp"

using namespace sievestore;
using namespace sievestore::bench;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Every node's DailyReports, day by day: what Identical compares. */
std::vector<std::vector<core::DailyReport>>
nodeDays(const sim::ShardedResult &result)
{
    std::vector<std::vector<core::DailyReport>> days;
    for (const auto &node : result.nodes)
        days.push_back(node->daily());
    return days;
}

sim::ShardedConfig
shardedConfig(const BenchOptions &opts, size_t shards)
{
    sim::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.policy.kind = sim::PolicyKind::SieveStoreC;
    cfg.policy.sieve_c.imct_slots =
        std::max<size_t>(1024, opts.scaledImctSlots() / shards);
    cfg.node.cache_blocks = std::max<uint64_t>(
        64, opts.scaledCacheBlocks(16ULL << 30) / shards);
    cfg.node.track_occupancy = false;
    cfg.batch = opts.batch;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    printBanner("Parallel sharded replay throughput",
                "Section 7 scaling, driven in parallel",
                opts);

    // Materialize the trace once so every timed run measures replay,
    // not synthesis, and every run replays identical requests.
    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        ensemble, opts.traceConfig());
    std::fprintf(stderr, "  materializing trace...\n");
    trace::VectorTrace tracev(trace::drain(gen));
    const double requests = static_cast<double>(tracev.size());
    const unsigned cores = std::thread::hardware_concurrency();
    note("%.0f requests in memory; %u hardware threads\n\n",
                requests, cores);

    stats::Table t({"Shards", "Serial req/s", "Parallel req/s",
                    "Speedup", "Efficiency",
                    "Cache meta B/blk", "Oversubscribed", "Identical"});
    for (const size_t shards :
         {size_t(1), size_t(2), size_t(4), size_t(8)}) {
        const sim::ShardedConfig cfg = shardedConfig(opts, shards);
        std::fprintf(stderr, "  %zu shards: serial...\n", shards);

        tracev.reset();
        auto start = std::chrono::steady_clock::now();
        const auto serial = runSharded(tracev, cfg);
        const double serial_s = secondsSince(start);

        std::fprintf(stderr, "  %zu shards: parallel...\n", shards);
        tracev.reset();
        start = std::chrono::steady_clock::now();
        const auto parallel = runShardedParallel(tracev, cfg);
        const double parallel_s = secondsSince(start);

        const bool identical = nodeDays(serial) == nodeDays(parallel);
        SIEVE_CHECK(identical,
                    "parallel replay diverged from serial at %zu "
                    "shards",
                    shards);

        // Efficiency normalizes by the cores the run can actually
        // use: shard workers + the reader, capped by the hardware.
        const double speedup = serial_s / parallel_s;
        const size_t threads = shards + 1;
        const double usable = static_cast<double>(
            std::min<size_t>(threads, std::max(1u, cores)));
        // Per-resident-block cache metadata across all nodes: the
        // flat-index engine's memory story at replay scale.
        uint64_t cache_bytes = 0, resident = 0;
        for (const auto &node : parallel.nodes) {
            cache_bytes += node->blockCache().memoryBytes();
            resident += node->blockCache().size();
        }
        t.row()
            .cell(uint64_t(shards))
            .cell(requests / serial_s, 0)
            .cell(requests / parallel_s, 0)
            .cell(speedup, 2)
            .cellPercent(speedup / usable)
            .cell(static_cast<double>(cache_bytes) /
                      static_cast<double>(std::max<uint64_t>(1,
                                                             resident)),
                  1)
            .cell(threads > std::max(1u, cores) ? "yes" : "no")
            .cell(identical ? "yes" : "NO");
    }
    emit(t, opts);
    note("[speedup at N shards is bounded by the busiest shard's work "
         "and by reader throughput. Five runs on a 4-vCPU host gave "
         "1.83-2.93x serial at 4 shards; at the default scale each "
         "replay takes under a second, so single runs spread widely. "
         "bench/e2e's mem-sharded workload (3 shards + reader) traced "
         "the busiest shard at 2.41 s against the reader's 0.57 s: "
         "shard work, not the reader, is the limit. Oversubscribed rows "
         "run more threads (shards + reader) than the %u hardware "
         "threads]\n",
         cores);

    // Batch-size sweep at a fixed shard count: how much of the
    // replay throughput comes from batching the decode, the per-shard
    // accumulation, and the SPSC hand-off. batch=1 reproduces the
    // per-request hand-off (one queue item per subrequest).
    const size_t sweep_shards = 4;
    note("\nbatch-size sweep at %zu shards (results are "
         "batch-invariant; only throughput moves):\n",
         sweep_shards);
    stats::Table sweep({"Batch", "Serial req/s", "Parallel req/s",
                        "Parallel vs batch=1", "Identical"});
    double parallel_b1 = 0.0;
    std::vector<std::vector<core::DailyReport>> golden;
    for (const size_t batch :
         {size_t(1), size_t(8), size_t(64), size_t(256)}) {
        sim::ShardedConfig cfg = shardedConfig(opts, sweep_shards);
        cfg.batch = batch;
        std::fprintf(stderr, "  batch %zu: serial...\n", batch);

        tracev.reset();
        auto start = std::chrono::steady_clock::now();
        const auto serial = runSharded(tracev, cfg);
        const double serial_s = secondsSince(start);

        std::fprintf(stderr, "  batch %zu: parallel...\n", batch);
        tracev.reset();
        start = std::chrono::steady_clock::now();
        const auto parallel = runShardedParallel(tracev, cfg);
        const double parallel_s = secondsSince(start);

        // Batch 1's serial run is the reference for every batch size.
        if (golden.empty()) {
            golden = nodeDays(serial);
            parallel_b1 = requests / parallel_s;
        }
        const bool identical = nodeDays(serial) == golden &&
                               nodeDays(parallel) == golden;
        SIEVE_CHECK(identical,
                    "batched replay diverged at batch %zu", batch);
        sweep.row()
            .cell(uint64_t(batch))
            .cell(requests / serial_s, 0)
            .cell(requests / parallel_s, 0)
            .cell((requests / parallel_s) / parallel_b1, 2)
            .cell(identical ? "yes" : "NO");
    }
    emit(sweep, opts);
    note("[one SPSC push per batch instead of per subrequest; the "
         "hand-off cap is %zu requests per queue item]\n",
         sim::kQueueBatchRequests);
    return 0;
}

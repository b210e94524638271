/**
 * @file
 * Section 7 — forward-looking issues: scaling and tuning.
 *
 * (1) Scaling: hash-partition the block space across N appliance nodes
 *     (each with 1/N of the capacity and its own SSD). Because every
 *     node sees a uniform slice of the ensemble's hot set, the captured
 *     fraction stays flat while per-node drive load divides — the
 *     scale-out that preserves the ensemble-sharing property, unlike a
 *     per-server split.
 * (2) Tuning: the self-tuning sieve holds allocation churn to a budget
 *     by adjusting t2 daily, removing the paper's hand-tuned threshold.
 * (3) End-to-end payoff: the HDD-vs-SSD service-time model translates
 *     captured accesses into the ensemble's mean-service-time speedup.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/auto_tune.hpp"
#include "sim/sharded.hpp"
#include "ssd/hdd_model.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"

using namespace sievestore;
using namespace sievestore::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    printBanner("Section 7: scaling and tuning",
                "Section 7 (forward-looking directions, fleshed out)",
                opts);

    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        ensemble, opts.traceConfig());

    // (1) Scaling sweep, replayed serially and through the parallel
    // engine: capture must be identical (same deployment, same
    // trace), and the parallel column shows what the threading
    // substrate buys at each node count.
    note("(1) block-space sharding across appliance nodes "
                "(16 GB total, SieveStore-C):\n");
    stats::Table t1({"Nodes", "Captured", "Alloc-writes",
                     "Worst node drives @99.9%", "Load imbalance",
                     "Parallel speedup"});
    for (size_t shards : {size_t(1), size_t(2), size_t(4), size_t(8)}) {
        sim::ShardedConfig cfg;
        cfg.shards = shards;
        cfg.policy.kind = sim::PolicyKind::SieveStoreC;
        cfg.policy.sieve_c.imct_slots =
            std::max<size_t>(1024, opts.scaledImctSlots() / shards);
        cfg.node.cache_blocks = std::max<uint64_t>(
            64, opts.scaledCacheBlocks(16ULL << 30) / shards);
        cfg.node.ssd = opts.scaledSsd((16ULL << 30) / shards);
        std::fprintf(stderr, "  running %zu nodes...\n", shards);
        gen.reset();
        auto start = std::chrono::steady_clock::now();
        const auto result = runSharded(gen, cfg);
        const std::chrono::duration<double> serial_s =
            std::chrono::steady_clock::now() - start;
        std::fprintf(stderr, "  running %zu nodes (parallel)...\n",
                     shards);
        gen.reset();
        start = std::chrono::steady_clock::now();
        const auto par = runShardedParallel(gen, cfg);
        const std::chrono::duration<double> parallel_s =
            std::chrono::steady_clock::now() - start;
        const auto totals = result.totals();
        SIEVE_CHECK(par.totals().hits == totals.hits &&
                        par.totals().accesses == totals.accesses,
                    "parallel replay diverged at %zu nodes", shards);
        t1.row()
            .cell(uint64_t(shards))
            .cellPercent(totals.hitRatio())
            .cell(totals.allocation_write_blocks)
            .cell(uint64_t(result.maxDrivesAtCoverage(0.999)))
            .cell(result.loadImbalance(), 2)
            .cell(serial_s.count() / parallel_s.count(), 2);
    }
    gen.reset();
    emit(t1, opts);
    note("[expected: flat capture — hash-partitioning the block "
                "space never strands capacity the way per-server "
                "partitioning (Section 5.3) does; the parallel replay "
                "(one worker per node) is bit-identical by "
                "construction and speeds up with shard count until "
                "cores or the reader saturate]\n\n");

    // (2) Self-tuning sieve under different churn budgets.
    note("(2) self-tuning sieve (t2 adjusted daily to a churn "
                "budget):\n");
    stats::Table t2({"Churn budget (x capacity/day)", "Captured",
                     "Alloc-writes", "Final t2", "t2 trajectory"});
    for (double budget : {0.02, 0.10, 0.50, 2.0}) {
        core::SieveStoreCConfig sieve;
        sieve.imct_slots = opts.scaledImctSlots();
        core::AutoTuneConfig tune;
        tune.churn_budget = budget;
        tune.cache_blocks = opts.scaledCacheBlocks(16ULL << 30);
        // No spec names the churn-budget tuner, so it runs in the
        // sieve's custom mode; the factory keeps a view for the
        // trajectory columns.
        const core::AutoTunedSievePolicy *policy_view = nullptr;
        core::ApplianceConfig ac;
        ac.cache_blocks = opts.scaledCacheBlocks(16ULL << 30);
        ac.ssd = opts.scaledSsd(16ULL << 30);
        ac.allocation = [&] {
            auto policy =
                std::make_unique<core::AutoTunedSievePolicy>(sieve, tune);
            policy_view = policy.get();
            return policy;
        };
        core::Appliance app(ac);
        gen.reset();
        sim::runTrace(gen, app);

        std::string trajectory = "9/4";
        for (uint32_t v : policy_view->t2History())
            trajectory += "," + std::to_string(v);
        const auto totals = app.totals();
        t2.row()
            .cell(budget, 2)
            .cellPercent(totals.hitRatio())
            .cell(totals.allocation_write_blocks)
            .cell(uint64_t(policy_view->currentT2()))
            .cell(trajectory);
    }
    gen.reset();
    emit(t2, opts);
    note("[tight budgets drive t2 up (less churn, slightly "
                "fewer hits); loose budgets relax toward the "
                "hit-maximizing threshold — no hand tuning needed]\n\n");

    // (2b) Online (t1, t2) adaptation: per-day shadow ghost
    // candidates score neighboring settings and the appliance
    // switches to the winner at day boundaries (the kind behind
    // --sieve=adaptive). The fixed rows replay the same trace at
    // pinned thresholds; the adaptive row starts from the
    // deliberately over-tight setting and must walk away from it,
    // so beating that fixed row is the bench's hard check.
    note("(2b) online adaptive sieve vs fixed (t1, t2) "
                "settings (16 GB):\n");
    stats::Table t2b({"Setting", "Captured", "Alloc-writes",
                      "Final (t1,t2)", "Switches"});
    const auto runSieve = [&](sim::PolicyKind kind, uint32_t start_t1,
                              uint32_t start_t2) {
        sim::PolicyConfig pc;
        pc.kind = kind;
        pc.sieve_c.imct_slots = opts.scaledImctSlots();
        pc.sieve_c.t1 = start_t1;
        pc.sieve_c.t2 = start_t2;
        pc.adaptive.imct_slots =
            std::max<size_t>(4096, opts.scaledImctSlots() / 8);
        core::ApplianceConfig ac;
        ac.cache_blocks = opts.scaledCacheBlocks(16ULL << 30);
        ac.ssd = opts.scaledSsd(16ULL << 30);
        gen.reset();
        auto app = sim::makeAppliance(pc, ac);
        sim::runTrace(gen, *app);
        return app;
    };
    struct FixedSetting
    {
        const char *label;
        uint32_t t1, t2;
    };
    uint64_t tight_fixed_hits = 0;
    for (const FixedSetting &f :
         {FixedSetting{"fixed (9,4), paper", 9, 4},
          FixedSetting{"fixed (16,8), over-tight", 16, 8}}) {
        const auto app = runSieve(sim::PolicyKind::SieveStoreC, f.t1,
                                  f.t2);
        const auto totals = app->totals();
        if (f.t1 == 16)
            tight_fixed_hits = totals.hits;
        t2b.row()
            .cell(f.label)
            .cellPercent(totals.hitRatio())
            .cell(totals.allocation_write_blocks)
            .cell("(" + std::to_string(f.t1) + "," +
                  std::to_string(f.t2) + ")")
            .cell(uint64_t(0));
    }
    {
        const auto app = runSieve(sim::PolicyKind::Adaptive, 16, 8);
        const auto totals = app->totals();
        // Final setting = the last day whose tuning columns were
        // filled (t1 >= 1 whenever the adaptive sieve reported).
        uint32_t final_t1 = 16, final_t2 = 8;
        for (auto it = app->daily().rbegin(); it != app->daily().rend();
             ++it) {
            if (it->tune_t1 != 0) {
                final_t1 = static_cast<uint32_t>(it->tune_t1);
                final_t2 = static_cast<uint32_t>(it->tune_t2);
                break;
            }
        }
        t2b.row()
            .cell("adaptive, from (16,8)")
            .cellPercent(totals.hitRatio())
            .cell(totals.allocation_write_blocks)
            .cell("(" + std::to_string(final_t1) + "," +
                  std::to_string(final_t2) + ")")
            .cell(totals.tune_switches);
        SIEVE_CHECK(totals.hits > tight_fixed_hits,
                    "adaptive sieve (%llu captured) failed to beat the "
                    "over-tight fixed setting (%llu captured)",
                    static_cast<unsigned long long>(totals.hits),
                    static_cast<unsigned long long>(tight_fixed_hits));
    }
    gen.reset();
    emit(t2b, opts);
    note("[started over-tight, the ghost-scored shadow candidates "
                "pull the thresholds loose within days: the adaptive "
                "row captures more than its own starting setting held "
                "fixed — the hand-tuned (t1, t2) knob is now a "
                "starting point, not a commitment]\n\n");

    // (3) End-to-end service-time payoff.
    note("(3) mean service-time speedup for the ensemble "
                "(15k-RPM spindles behind, X25-E in front):\n");
    stats::Table t3({"Configuration", "Captured",
                     "Mean service-time speedup"});
    for (const PolicyRun &run :
         {PolicyRun{"SieveStore-C 16GB", sim::PolicyKind::SieveStoreC,
                    16ULL << 30},
          PolicyRun{"WMNA 32GB", sim::PolicyKind::WMNA,
                    32ULL << 30}}) {
        const auto app = runPolicy(run, opts, gen);
        const double hit = app->totals().hitRatio();
        t3.row()
            .cell(run.label)
            .cellPercent(hit)
            .cell(ssd::serviceTimeSpeedup(
                      ssd::HddModel::enterprise15k(),
                      ssd::SsdModel::intelX25E(), hit),
                  2);
    }
    emit(t3, opts);
    note("[the captured fraction is served at SSD IOPS — two "
                "orders of magnitude above the spindles (Section "
                "5.2)]\n");
    return 0;
}

/**
 * @file
 * Datacenter scenario: evaluate SieveStore as the caching appliance for
 * the paper's 13-server ensemble, against the unsieved alternative an
 * operator would otherwise deploy.
 *
 * Runs SieveStore-C, SieveStore-D, and WMNA over the synthetic week and
 * prints the day-by-day service report an operator would care about:
 * captured traffic, SSD writes, drive provisioning, and wearout.
 *
 * A final section scales the appliance out to a 4-node sharded
 * deployment and replays it through the parallel engine — one worker
 * thread per node — which is how larger-than-default scales stay
 * tractable.
 *
 *   $ ./datacenter_ensemble [scale-denominator] [threads]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>

#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "sim/storage_report.hpp"
#include "ssd/network.hpp"
#include "stats/table.hpp"
#include "trace/synthetic.hpp"
#include "util/string_util.hpp"

using namespace sievestore;

int
main(int argc, char **argv)
try {
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        std::printf("usage: datacenter_ensemble [scale-denominator] "
                    "[threads]\n");
        return 0;
    }
    double inv_scale = 8192.0;
    uint64_t threads = 4;
    if (argc > 3 ||
        (argc > 1 && (!util::parseDouble(argv[1], inv_scale) ||
                      inv_scale < 1.0)) ||
        (argc > 2 && !util::parseUint64(argv[2], threads))) {
        std::fprintf(stderr, "datacenter_ensemble: expected a scale "
                             "denominator >= 1 and a thread count "
                             "(try --help)\n");
        return 2;
    }
    std::printf("SieveStore datacenter evaluation: 13 servers, one "
                "week, 1/%.0f of the paper's traffic\n\n",
                inv_scale);

    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    trace::SyntheticConfig workload;
    workload.scale = 1.0 / inv_scale;
    auto gen =
        trace::SyntheticEnsembleGenerator::paper(ensemble, workload);

    struct Candidate
    {
        const char *label;
        sim::PolicyKind kind;
    };
    const Candidate candidates[] = {
        {"SieveStore-C", sim::PolicyKind::SieveStoreC},
        {"SieveStore-D", sim::PolicyKind::SieveStoreD},
        {"WMNA (unsieved)", sim::PolicyKind::WMNA},
    };

    stats::Table t({"Appliance", "Captured", "SSD writes/day",
                    "Drives @99.9%", "1-drive coverage",
                    "SSD lifetime", "NIC peak (4x GbE)"});
    for (const Candidate &c : candidates) {
        sim::PolicyConfig pc;
        pc.kind = c.kind;
        pc.sieve_c.imct_slots = std::max<size_t>(
            4096, static_cast<size_t>(4.5e8 * workload.scale));
        core::ApplianceConfig ac;
        ac.cache_blocks =
            workload.scaledBytes(16ULL << 30) / trace::kBlockBytes;
        ac.ssd = ssd::SsdModel::intelX25E(16ULL << 30)
                     .scaled(workload.scale);

        gen.reset();
        auto app = sim::makeAppliance(pc, ac);
        sim::runTrace(gen, *app);

        const auto totals = app->totals();
        const auto cost = sim::summarizeCost(*app, 7.0);
        const double writes_day_full =
            static_cast<double>(totals.write_hits +
                                totals.totalAllocationBlocks()) *
            inv_scale * 512.0 / 7.0;
        char lifetime[32];
        std::snprintf(lifetime, sizeof(lifetime), "%.1f years",
                      cost.endurance_years);
        // Section 3.3's network concern, against measured traffic. The
        // NIC budget does not shrink with the workload scale, so scale
        // the utilization back up for an apples-to-apples check.
        const auto nic = ssd::checkNetworkFeasibility(
            *app->occupancy(), ssd::NetworkModel::fourGigabitLinks());
        t.row()
            .cell(c.label)
            .cellPercent(totals.hitRatio())
            .cell(util::formatBytes(
                static_cast<uint64_t>(writes_day_full)))
            .cell(uint64_t(cost.drives_999))
            .cellPercent(cost.coverage_one_drive, 2)
            .cell(lifetime)
            .cellPercent(nic.peak_utilization * inv_scale, 1);
    }
    t.print(std::cout);

    std::printf("\nDay-by-day capture with SieveStore-C:\n");
    {
        sim::PolicyConfig pc;
        pc.kind = sim::PolicyKind::SieveStoreC;
        pc.sieve_c.imct_slots = std::max<size_t>(
            4096, static_cast<size_t>(4.5e8 * workload.scale));
        core::ApplianceConfig ac;
        ac.cache_blocks =
            workload.scaledBytes(16ULL << 30) / trace::kBlockBytes;
        ac.ssd = ssd::SsdModel::intelX25E(16ULL << 30)
                     .scaled(workload.scale);
        gen.reset();
        auto app = sim::makeAppliance(pc, ac);
        sim::runTrace(gen, *app);

        stats::Table td({"Day", "Accesses", "Captured", "Alloc-writes",
                         "Dev I/Os", "Lat meas/pred",
                         "Sieve metastate"});
        for (size_t d = 0; d < app->daily().size(); ++d) {
            const auto &day = app->daily()[d];
            if (day.accesses == 0)
                continue;
            // Measured vs model-predicted device latency: under the
            // default AnalyticBackend the ratio is exactly 1.000 —
            // the observation channel echoing the model proves the
            // plumbing; a FileBackend run makes this column real.
            const auto lat = sim::storageLatencySummary(day, ac.ssd);
            td.row()
                .cell("day " + std::to_string(d + 1))
                .cell(day.accesses)
                .cellPercent(day.hitRatio())
                .cell(day.allocation_write_blocks)
                .cell(lat.measured_ios)
                .cell(sim::storageRatioCell(lat))
                .cell(util::formatBytes(app->metastateBytes()));
        }
        td.print(std::cout);
    }
    std::printf("\nThe sieve turns the SSD from a write-bound liability "
                "(unsieved caches spend most of their IOPS absorbing "
                "allocation-writes for blocks that are never reused) "
                "into a read-serving asset provisioned with a single "
                "drive.\n");

    // Scale-out: shard the block space across 4 appliance nodes and
    // replay them in parallel (Section 7 direction).
    std::printf("\nScale-out: 4 appliance nodes, parallel replay "
                "with %zu worker threads:\n",
                static_cast<size_t>(threads));
    {
        sim::ShardedConfig scfg;
        scfg.shards = 4;
        scfg.policy.kind = sim::PolicyKind::SieveStoreC;
        scfg.policy.sieve_c.imct_slots = std::max<size_t>(
            1024, static_cast<size_t>(4.5e8 * workload.scale) / 4);
        scfg.node.cache_blocks = std::max<uint64_t>(
            64,
            workload.scaledBytes(16ULL << 30) / trace::kBlockBytes / 4);
        scfg.node.ssd = ssd::SsdModel::intelX25E(4ULL << 30)
                            .scaled(workload.scale);
        scfg.parallel.threads = threads;

        gen.reset();
        const auto start = std::chrono::steady_clock::now();
        const auto sharded = sim::runShardedParallel(gen, scfg);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;

        stats::Table ts({"Node", "Accesses", "Captured",
                         "Alloc-writes", "Dev I/Os",
                         "Lat meas/pred"});
        for (size_t s = 0; s < sharded.nodes.size(); ++s) {
            const auto nt = sharded.nodes[s]->totals();
            const auto lat =
                sim::storageLatencySummary(nt, scfg.node.ssd);
            ts.row()
                .cell("node " + std::to_string(s))
                .cell(nt.accesses)
                .cellPercent(nt.hitRatio())
                .cell(nt.allocation_write_blocks)
                .cell(lat.measured_ios)
                .cell(sim::storageRatioCell(lat));
        }
        const auto st = sharded.totals();
        const auto slat = sim::storageLatencySummary(
            st, scfg.node.ssd);
        ts.row()
            .cell("total")
            .cell(st.accesses)
            .cellPercent(st.hitRatio())
            .cell(st.allocation_write_blocks)
            .cell(slat.measured_ios)
            .cell(sim::storageRatioCell(slat));
        ts.print(std::cout);
        std::printf("replayed in %.2f s (load imbalance %.2f); "
                    "per-node reports are bit-identical to a serial "
                    "replay of the same deployment\n",
                    elapsed.count(), sharded.loadImbalance());
    }
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "datacenter_ensemble: %s\n", e.what());
    return 1;
}

/**
 * @file
 * Capacity planner: how much SSD does an ensemble actually need?
 *
 * The paper's core economics argument is that a small, shared, sieved
 * cache hits the cost-performance sweet spot. This tool makes the
 * argument quantitative for a workload: it sweeps cache capacities and
 * sieve thresholds and prints captured traffic, required drive count,
 * and wearout at each point, so an operator can pick the knee.
 *
 *   $ ./capacity_planner [scale-denominator]
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>

#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "trace/synthetic.hpp"
#include "util/string_util.hpp"

using namespace sievestore;

int
main(int argc, char **argv)
try {
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        std::printf("usage: capacity_planner [scale-denominator]\n");
        return 0;
    }
    double inv_scale = 8192.0;
    if (argc > 2 || (argc == 2 && (!util::parseDouble(argv[1], inv_scale) ||
                                   inv_scale < 1.0))) {
        std::fprintf(stderr, "capacity_planner: expected one scale "
                             "denominator >= 1 (try --help)\n");
        return 2;
    }
    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    trace::SyntheticConfig workload;
    workload.scale = 1.0 / inv_scale;
    auto gen =
        trace::SyntheticEnsembleGenerator::paper(ensemble, workload);

    std::printf("SieveStore capacity planner (1/%.0f of the paper's "
                "traffic; capacities shown at full scale)\n\n",
                inv_scale);

    // Sweep 1: cache capacity with the paper's sieve tuning.
    std::printf("capacity sweep (SieveStore-C, t1=9/t2=4, W=8h):\n");
    stats::Table tc({"Cache size", "Captured", "Drives @99.9%",
                     "1-drive coverage", "SSD lifetime (years)"});
    for (const uint64_t gib : {2ULL, 4ULL, 8ULL, 16ULL, 32ULL, 64ULL}) {
        sim::PolicyConfig pc;
        pc.kind = sim::PolicyKind::SieveStoreC;
        pc.sieve_c.imct_slots = std::max<size_t>(
            4096, static_cast<size_t>(4.5e8 * workload.scale));
        core::ApplianceConfig ac;
        ac.cache_blocks = std::max<uint64_t>(
            64,
            workload.scaledBytes(gib << 30) / trace::kBlockBytes);
        ac.ssd =
            ssd::SsdModel::intelX25E(gib << 30).scaled(workload.scale);
        gen.reset();
        auto app = sim::makeAppliance(pc, ac);
        sim::runTrace(gen, *app);
        const auto cost = sim::summarizeCost(*app, 7.0);
        tc.row()
            .cell(util::formatBytes(gib << 30))
            .cellPercent(app->totals().hitRatio())
            .cell(uint64_t(cost.drives_999))
            .cellPercent(cost.coverage_one_drive, 2)
            .cell(cost.endurance_years, 1);
    }
    tc.print(std::cout);
    std::printf("[the knee: the top-1%% hot set fits in 16 GB with room "
                "to spare (Section 2), so capacity beyond it buys "
                "little]\n\n");

    // Sweep 2: how selective should the sieve be?
    std::printf("selectivity sweep (16 GB cache, SieveStore-C MCT "
                "threshold t2):\n");
    stats::Table ts({"t2", "Captured", "Alloc-writes",
                     "Drives @99.9%"});
    for (const uint32_t t2 : {0U, 1U, 2U, 4U, 8U, 16U}) {
        sim::PolicyConfig pc;
        pc.kind = sim::PolicyKind::SieveStoreC;
        pc.sieve_c.t2 = t2;
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
        ts.row()
            .cell(uint64_t(t2))
            .cellPercent(totals.hitRatio())
            .cell(totals.allocation_write_blocks)
            .cell(uint64_t(cost.drives_999));
    }
    ts.print(std::cout);
    std::printf("[looser sieving buys little capture but multiplies "
                "allocation-writes — the Section 5.1 sensitivity "
                "story]\n");
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "capacity_planner: %s\n", e.what());
    return 1;
}

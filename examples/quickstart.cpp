/**
 * @file
 * Quickstart: the smallest end-to-end SieveStore run.
 *
 * Builds a scaled-down synthetic storage ensemble (the library's
 * stand-in for a week of block traces from 13 servers), puts a
 * SieveStore-C appliance in front of it, replays the week, and prints
 * what the cache captured and what sieving saved.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "core/appliance.hpp"
#include "sim/driver.hpp"
#include "trace/synthetic.hpp"

using namespace sievestore;

int
main()
{
    // 1. Describe the storage ensemble. paperEnsemble() is the 13-server
    //    deployment of the paper's Table 1; addServer() builds your own.
    const trace::EnsembleConfig ensemble =
        trace::EnsembleConfig::paperEnsemble();

    // 2. A week of block traffic at 1/8192 of the paper's volume.
    //    Everything is deterministic given the seed.
    trace::SyntheticConfig workload;
    workload.scale = 1.0 / 8192.0;
    auto trace =
        trace::SyntheticEnsembleGenerator::paper(ensemble, workload);

    // 3. Configure the appliance: a 16 GB SSD cache (scaled with the
    //    workload) fronted by the two-tier continuous sieve with the
    //    paper's tuning (t1 = 9, t2 = 4, W = 8 h in 4 subwindows).
    core::ApplianceConfig config;
    config.cache_blocks =
        workload.scaledBytes(16ULL << 30) / trace::kBlockBytes;
    config.ssd =
        ssd::SsdModel::intelX25E(16ULL << 30).scaled(workload.scale);

    // The sieve is a plain-data spec: SieveStore-C keeps the paper's
    // defaults, and its IMCT is scaled with the trace.
    config.sieve.kind = core::SieveKind::SieveStoreC;
    config.sieve.sieve_c.imct_slots = 1 << 17;
    core::Appliance appliance(config);

    // 4. Replay the trace. runTrace() feeds requests in time order and
    //    fires the calendar-day boundaries.
    sim::runTrace(trace, appliance);

    // 5. Read the results.
    const core::DailyReport totals = appliance.totals();
    std::printf("week of traffic:   %llu block accesses\n",
                static_cast<unsigned long long>(totals.accesses));
    std::printf("captured by cache: %.1f%% (%.0f%% reads / %.0f%% "
                "writes)\n",
                100.0 * totals.hitRatio(),
                100.0 * static_cast<double>(totals.read_hits) /
                    static_cast<double>(totals.hits),
                100.0 * static_cast<double>(totals.write_hits) /
                    static_cast<double>(totals.hits));
    std::printf("allocation-writes: %llu blocks (the sieve bypassed "
                "everything else)\n",
                static_cast<unsigned long long>(
                    totals.allocation_write_blocks));

    const auto *occupancy = appliance.occupancy();
    std::printf("drive occupancy:   one SSD covers %.2f%% of minutes "
                "(max %u drives)\n",
                100.0 * occupancy->coverageWithDrives(1),
                occupancy->maxDrives());
    std::printf("sieve metastate:   %.1f MiB\n",
                static_cast<double>(appliance.metastateBytes()) /
                    (1 << 20));
    return 0;
}

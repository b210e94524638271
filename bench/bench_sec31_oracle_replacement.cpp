/**
 * @file
 * Section 3.1's premise, simulated: replacement cannot substitute for
 * sieving.
 *
 * Table 2's thought experiment grants AOD and WMNA an *oracle
 * replacement policy* that keeps each day's top-1 % blocks resident,
 * and shows that even then the allocation-writes remain. This harness
 * runs that exact configuration live: the cache's replacement policy is
 * OracleRetainPolicy with each day's true top-1 % set installed ahead
 * of time (from a profiling pass), under AOD, WMNA, and — for contrast
 * — the same oracle protection with SieveStore-C allocation, plus plain
 * LRU rows. The conclusion the paper draws: the allocation policy, not
 * the replacement policy, is where the SSD-write problem lives.
 */

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "cache/replacement.hpp"
#include "core/sieve_spec.hpp"
#include "stats/table.hpp"

using namespace sievestore;
using namespace sievestore::bench;

namespace {

/** The continuous sieve under test. */
core::SievePolicySpec
sieveSpec(core::SieveKind kind, const BenchOptions &opts)
{
    core::SievePolicySpec spec;
    spec.kind = kind;
    spec.sieve_c.imct_slots = opts.scaledImctSlots();
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = BenchOptions::parse(argc, argv);
    printBanner("Section 3.1: oracle replacement is not enough",
                "Table 2's premise, run live", opts);

    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        ensemble, opts.traceConfig());

    // Profiling pass: each day's top-1 % blocks.
    std::fprintf(stderr, "  profiling daily top-1%% sets...\n");
    const auto day_sets = sim::perDayTopBlocks(gen, 0.01);

    stats::Table t({"Allocation policy", "Replacement", "Hits",
                    "Alloc-writes", "SSD write blocks",
                    "writes/hit-blocks"});
    for (const core::SieveKind kind :
         {core::SieveKind::Aod, core::SieveKind::Wmna,
          core::SieveKind::SieveStoreC}) {
        const char *policy_name = core::sieveKindName(kind);
        for (const bool oracle : {true, false}) {
            std::fprintf(stderr, "  running %s + %s...\n", policy_name,
                         oracle ? "oracle" : "LRU");
            core::ApplianceConfig ac;
            ac.cache_blocks = opts.scaledCacheBlocks(32ULL << 30);
            ac.ssd = opts.scaledSsd(32ULL << 30);
            ac.track_occupancy = false;
            ac.sieve = sieveSpec(kind, opts);
            cache::OracleRetainPolicy *retain = nullptr;
            if (oracle) {
                ac.replacement = [&retain]() {
                    auto p =
                        std::make_unique<cache::OracleRetainPolicy>();
                    retain = p.get();
                    return p;
                };
            }
            core::Appliance app(ac);

            // Drive day by day so the oracle's protected set tracks
            // the day being replayed.
            gen.reset();
            for (int d = 0; d < gen.days(); ++d) {
                const auto di = static_cast<size_t>(d);
                if (retain && di < day_sets.size())
                    retain->setProtected({day_sets[di].begin(),
                                          day_sets[di].end()});
                for (const auto &req : gen.generateDay(d))
                    app.processRequest(req);
                app.finishDay(d);
            }
            app.finishTrace();
            gen.reset();

            const auto totals = app.totals();
            const uint64_t ssd_writes =
                totals.write_hits + totals.allocation_write_blocks;
            t.row()
                .cell(policy_name)
                .cell(oracle ? "oracle (top-1% retained)" : "LRU")
                .cellPercent(totals.hitRatio())
                .cell(totals.allocation_write_blocks)
                .cell(ssd_writes)
                .cell(static_cast<double>(ssd_writes) /
                          static_cast<double>(
                              std::max<uint64_t>(1, totals.hits)),
                      2);
        }
    }
    emit(t, opts);
    note("\n[the paper's point: giving the unsieved policies a "
                "perfect replacement policy improves their hit ratio "
                "but cannot touch their allocation-writes — only "
                "selective *allocation* can; SieveStore-C needs no "
                "oracle to get both]\n");
    return 0;
}

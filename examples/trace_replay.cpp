/**
 * @file
 * Real-trace path: replay MSR-Cambridge-format CSV traces.
 *
 * The paper's evaluation runs on the MSR Cambridge block traces, which
 * ship as one CSV per server. This example demonstrates that exact
 * path: it fabricates per-server sample CSVs (from the synthetic
 * generator, so the example is self-contained), then replays them the
 * way you would replay the real thing:
 *
 *   MsrCsvReader per file -> MergedTrace -> SieveStore appliance.
 *
 * With the real traces on disk, point `--dir` at them and every
 * experiment in this repository runs on them unmodified.
 *
 *   $ ./trace_replay [--dir /path/to/msr/csvs]
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/appliance.hpp"
#include "sim/driver.hpp"
#include "trace/merge.hpp"
#include "trace/msr_csv.hpp"
#include "trace/synthetic.hpp"

using namespace sievestore;
namespace fs = std::filesystem;

namespace {

/** Fabricate one MSR-format CSV per server from the synthetic week. */
std::vector<fs::path>
fabricateSampleCsvs(const trace::EnsembleConfig &ensemble,
                    const fs::path &dir)
{
    fs::create_directories(dir);
    trace::SyntheticConfig workload;
    workload.scale = 1.0 / 32768.0; // small: this is a format demo
    auto gen =
        trace::SyntheticEnsembleGenerator::paper(ensemble, workload);

    // FILETIME origin: some calendar midnight.
    const uint64_t origin = 128166336000000000ULL -
                            128166336000000000ULL % trace::kTicksPerDay;
    std::vector<std::unique_ptr<trace::MsrCsvWriter>> writers;
    std::vector<fs::path> paths;
    for (const auto &srv : ensemble.servers()) {
        paths.push_back(dir / (srv.key + ".csv"));
        writers.push_back(std::make_unique<trace::MsrCsvWriter>(
            paths.back().string(), ensemble, origin));
    }
    trace::Request r;
    while (gen.next(r))
        writers[r.server]->write(r);
    for (auto &w : writers)
        w->close();
    return paths;
}

} // namespace

int
main(int argc, char **argv)
try {
    const auto ensemble = trace::EnsembleConfig::paperEnsemble();

    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        std::printf("usage: trace_replay [--dir DIR]\n");
        return 0;
    }
    const bool have_dir = argc == 3 && std::strcmp(argv[1], "--dir") == 0;
    if (argc > 1 && !have_dir) {
        std::fprintf(stderr, "trace_replay: usage: trace_replay "
                             "[--dir DIR]\n");
        return 2;
    }
    fs::path dir;
    bool fabricated = false;
    if (have_dir) {
        dir = argv[2];
    } else {
        dir = fs::temp_directory_path() / "sievestore-sample-msr";
        std::printf("no --dir given; fabricating sample MSR CSVs under "
                    "%s\n",
                    dir.c_str());
        fabricateSampleCsvs(ensemble, dir);
        fabricated = true;
    }

    // One reader per CSV, all on one clock (the midnight before the
    // earliest record), merged into a single time-ordered stream.
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".csv")
            paths.push_back(entry.path().string());
    if (paths.empty()) {
        std::fprintf(stderr, "no .csv files in %s\n", dir.c_str());
        return 1;
    }
    const uint64_t origin = trace::msrSharedOrigin(paths, ensemble);
    std::vector<std::unique_ptr<trace::TraceReader>> readers;
    for (const std::string &path : paths)
        readers.push_back(
            std::make_unique<trace::MsrCsvReader>(path, ensemble, origin));
    std::printf("replaying %zu trace files...\n", paths.size());
    trace::MergedTrace merged(std::move(readers));

    // A SieveStore-C appliance sized for the sample volume.
    core::ApplianceConfig config;
    config.cache_blocks = (16ULL << 30) / 32768 / trace::kBlockBytes;
    config.ssd = ssd::SsdModel::intelX25E().scaled(1.0 / 32768.0);
    config.sieve.kind = core::SieveKind::SieveStoreC;
    config.sieve.sieve_c.imct_slots = 1 << 15;
    core::Appliance appliance(config);

    sim::runTrace(merged, appliance);

    const auto totals = appliance.totals();
    std::printf("\nreplayed %llu block accesses across %zu days\n",
                static_cast<unsigned long long>(totals.accesses),
                appliance.daily().size());
    std::printf("captured: %.1f%%; allocation-writes: %llu blocks\n",
                100.0 * totals.hitRatio(),
                static_cast<unsigned long long>(
                    totals.allocation_write_blocks));
    if (fabricated)
        std::printf("\n(point --dir at the real MSR Cambridge CSVs to "
                    "replay them instead)\n");
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "trace_replay: %s\n", e.what());
    return 1;
}

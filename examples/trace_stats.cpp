/**
 * @file
 * Trace inspector: summarize any trace file this library understands.
 *
 *   $ ./trace_stats week.sstr            # binary trace
 *   $ ./trace_stats --msr usr.csv ...    # one or more MSR CSVs
 *
 * Prints the per-day shape (requests, bytes, unique footprint, read
 * fraction) and the popularity-skew landmarks of Section 2, so a trace
 * can be sanity-checked before running experiments against it.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/popularity.hpp"
#include "stats/table.hpp"
#include "trace/binary_trace.hpp"
#include "trace/merge.hpp"
#include "trace/msr_csv.hpp"
#include "trace/trace_stats.hpp"
#include "util/sim_time.hpp"
#include "util/string_util.hpp"

using namespace sievestore;

int
main(int argc, char **argv)
try {
    const char *usage = "usage: trace_stats FILE.sstr | --msr FILE.csv...";
    if (argc > 1 && (std::strcmp(argv[1], "--help") == 0 ||
                     std::strcmp(argv[1], "-h") == 0)) {
        std::printf("%s\n", usage);
        return 0;
    }
    const bool msr = argc > 1 && std::strcmp(argv[1], "--msr") == 0;
    if (argc < 2 || (msr && argc < 3) || (!msr && argc > 2)) {
        std::fprintf(stderr, "trace_stats: %s\n", usage);
        return 2;
    }

    std::unique_ptr<trace::TraceReader> reader;
    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    if (msr) {
        const std::vector<std::string> paths(argv + 2, argv + argc);
        // One clock for every file: the midnight before the earliest
        // record.
        const uint64_t origin = trace::msrSharedOrigin(paths, ensemble);
        std::vector<std::unique_ptr<trace::TraceReader>> sources;
        for (const std::string &path : paths)
            sources.push_back(std::make_unique<trace::MsrCsvReader>(
                path, ensemble, origin));
        reader = std::make_unique<trace::MergedTrace>(
            std::move(sources));
    } else {
        reader = std::make_unique<trace::BinaryTraceReader>(argv[1]);
    }

    const trace::TraceStats stats = trace::summarizeTrace(*reader);
    std::printf("trace: %s requests, %s block accesses, %s "
                "transferred, %zu calendar days\n\n",
                util::formatCount(stats.total_requests).c_str(),
                util::formatCount(stats.total_block_accesses).c_str(),
                util::formatBytes(stats.total_bytes).c_str(),
                stats.days.size());

    stats::Table t({"Day", "Requests", "Accesses", "Transferred",
                    "Unique footprint", "Read frac", "Top-1% share",
                    "Count @1%", "Singletons"});
    reader->reset();
    analysis::BlockCounts counts;
    int current_day = -1;
    auto fold = [&]() {
        if (current_day < 0 || counts.empty())
            return;
        const auto &day = stats.days[static_cast<size_t>(current_day)];
        analysis::PopularityProfile profile(counts);
        t.row()
            .cell("day " + std::to_string(current_day + 1))
            .cell(day.requests)
            .cell(day.block_accesses)
            .cell(util::formatBytes(day.bytes))
            .cell(util::formatBytes(day.unique_blocks * 512))
            .cellPercent(day.readFraction())
            .cellPercent(profile.topShare(0.01))
            .cell(profile.countAtPercentile(0.01))
            .cellPercent(profile.fractionWithCountAtMost(1));
        counts.clear();
    };
    trace::Request r;
    while (reader->next(r)) {
        const int day = static_cast<int>(util::dayOf(r.time));
        if (day != current_day) {
            fold();
            current_day = day;
        }
        for (uint32_t i = 0; i < r.length_blocks; ++i)
            ++counts[r.blockAt(i)];
    }
    fold();
    t.print(std::cout);
    std::printf("\n(O1 landmarks: top-1%% share 14-53%%, count at the "
                "1%% rank ~10, ~50%% singletons)\n");
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "trace_stats: %s\n", e.what());
    return 1;
}

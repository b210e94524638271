/**
 * @file
 * Trace fabrication tool: materialize the synthetic ensemble workload
 * to a file, in either the compact binary format (fast replay) or the
 * MSR-Cambridge CSV format (one file per server, interoperable with
 * other trace tooling).
 *
 *   $ ./make_trace --out week.sstr [--scale-denominator N] [--seed S]
 *   $ ./make_trace --msr-dir traces/ [--scale-denominator N]
 *
 * A materialized trace replays byte-identically across machines, which
 * makes experiment results shareable without shipping gigabytes.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "trace/binary_trace.hpp"
#include "trace/msr_csv.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_stats.hpp"
#include "util/string_util.hpp"

using namespace sievestore;
namespace fs = std::filesystem;

namespace {

/** Bad command line: one line on stderr, exit status 2. */
[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "make_trace: %s (try --help)\n", msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string out_binary;
    std::string msr_dir;
    trace::SyntheticConfig cfg;
    cfg.scale = 1.0 / 8192.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(arg + " requires a value");
            return argv[++i];
        };
        if (arg == "--out") {
            out_binary = value();
        } else if (arg == "--msr-dir") {
            msr_dir = value();
        } else if (arg == "--scale-denominator") {
            const char *text = value();
            double inv_scale = 0.0;
            if (!util::parseDouble(text, inv_scale) || inv_scale < 1.0)
                usageError("--scale-denominator must be a number >= 1, "
                           "got '" + std::string(text) + "'");
            cfg.scale = 1.0 / inv_scale;
        } else if (arg == "--seed") {
            const char *text = value();
            if (!util::parseUint64(text, cfg.seed))
                usageError("--seed must be an unsigned integer, got '" +
                           std::string(text) + "'");
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: make_trace (--out FILE | --msr-dir DIR)"
                        " [--scale-denominator N] [--seed S]\n");
            return 0;
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    if (out_binary.empty() && msr_dir.empty())
        usageError("choose an output: --out FILE or --msr-dir DIR");

    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    auto gen = trace::SyntheticEnsembleGenerator::paper(ensemble, cfg);

    uint64_t written = 0;
    if (!out_binary.empty()) {
        trace::BinaryTraceWriter writer(out_binary);
        trace::Request r;
        while (gen.next(r))
            writer.write(r);
        writer.close();
        written = writer.written();
        std::printf("wrote %s requests to %s (%s)\n",
                    util::formatCount(written).c_str(),
                    out_binary.c_str(),
                    util::formatBytes(fs::file_size(out_binary)).c_str());
        gen.reset();
    }
    if (!msr_dir.empty()) {
        fs::create_directories(msr_dir);
        const uint64_t origin =
            128166336000000000ULL -
            128166336000000000ULL % trace::kTicksPerDay;
        std::vector<std::unique_ptr<trace::MsrCsvWriter>> writers;
        for (const auto &srv : ensemble.servers())
            writers.push_back(std::make_unique<trace::MsrCsvWriter>(
                (fs::path(msr_dir) / (srv.key + ".csv")).string(),
                ensemble, origin));
        gen.reset();
        trace::Request r;
        written = 0;
        while (gen.next(r)) {
            writers[r.server]->write(r);
            ++written;
        }
        for (auto &w : writers)
            w->close();
        std::printf("wrote %s requests across %zu MSR-format CSVs in "
                    "%s\n",
                    util::formatCount(written).c_str(), writers.size(),
                    msr_dir.c_str());
        gen.reset();
    }

    // Summarize what was produced.
    const trace::TraceStats stats = trace::summarizeTrace(gen);
    std::printf("trace shape: %zu calendar days, %s block accesses, "
                "%s transferred\n",
                stats.days.size(),
                util::formatCount(stats.total_block_accesses).c_str(),
                util::formatBytes(stats.total_bytes).c_str());
    return 0;
} catch (const std::exception &e) {
    std::fprintf(stderr, "make_trace: %s\n", e.what());
    return 1;
}

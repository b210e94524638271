#include "bench_common.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "util/string_util.hpp"

namespace sievestore {
namespace bench {

namespace {

/** Set by parse() so note() can silence commentary without every
 * call site threading the options through helper functions. */
bool g_suppress_notes = false;

/** Bad command line: one line on stderr, exit status 2. */
[[noreturn]] __attribute__((format(printf, 1, 2))) void
usageError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fputs("error: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputs(" (try --help)\n", stderr);
    std::exit(2);
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                usageError("%s requires a value", flag);
            return argv[++i];
        };
        if (arg == "--scale-denominator") {
            const char *text = value("--scale-denominator");
            if (!util::parseDouble(text, opts.inv_scale) ||
                opts.inv_scale < 1.0)
                usageError("--scale-denominator must be a number >= 1, "
                           "got '%s'", text);
        } else if (arg == "--seed") {
            const char *text = value("--seed");
            if (!util::parseUint64(text, opts.seed))
                usageError("--seed must be an unsigned integer, got "
                           "'%s'", text);
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--batch") {
            const char *text = value("--batch");
            uint64_t batch = 0;
            if (!util::parseUint64(text, batch) || batch == 0)
                usageError("--batch must be an integer >= 1, got '%s'",
                           text);
            opts.batch = batch;
        } else if (arg == "--sieve" ||
                   arg.rfind("--sieve=", 0) == 0) {
            const std::string name =
                arg == "--sieve" ? value("--sieve")
                                 : arg.substr(std::strlen("--sieve="));
            if (name == "sievestore-c")
                opts.sieve_kind = sim::PolicyKind::SieveStoreC;
            else if (name == "adaptive")
                opts.sieve_kind = sim::PolicyKind::Adaptive;
            else
                usageError("--sieve must be 'sievestore-c' or "
                           "'adaptive', got '%s'", name.c_str());
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "options:\n"
                "  --scale-denominator N  run at 1/N of the paper's "
                "traffic (default 4096)\n"
                "  --seed S               generator seed\n"
                "  --csv                  CSV output\n"
                "  --json                 JSON output (suppresses "
                "banners)\n"
                "  --batch N              requests per replay batch "
                "(default 64; results are batch-invariant)\n"
                "  --sieve NAME           continuous sieve run where "
                "rosters say SieveStore-C: 'sievestore-c' (default) "
                "or 'adaptive' (online (t1,t2) tuning)\n");
            std::exit(0);
        } else {
            usageError("unknown option '%s'", arg.c_str());
        }
    }
    g_suppress_notes = opts.json;
    return opts;
}

void
note(const char *fmt, ...)
{
    if (g_suppress_notes)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
}

trace::SyntheticConfig
BenchOptions::traceConfig() const
{
    trace::SyntheticConfig cfg;
    cfg.scale = 1.0 / inv_scale;
    cfg.seed = seed;
    return cfg;
}

ssd::SsdModel
BenchOptions::scaledSsd(uint64_t capacity_bytes) const
{
    return ssd::SsdModel::intelX25E(capacity_bytes)
        .scaled(1.0 / inv_scale);
}

uint64_t
BenchOptions::scaledCacheBlocks(uint64_t full_bytes) const
{
    const auto blocks = static_cast<uint64_t>(
        static_cast<double>(full_bytes) / inv_scale /
        static_cast<double>(trace::kBlockBytes));
    return std::max<uint64_t>(64, blocks);
}

size_t
BenchOptions::scaledImctSlots() const
{
    // ~450M slots at full scale: 3.6 GB of 8-byte counters, inside
    // the paper's ~8 GB IMCT + MCT budget; clamped so tiny scales
    // still have a meaningful table.
    const auto slots = static_cast<size_t>(4.5e8 / inv_scale);
    return std::max<size_t>(4096, slots);
}

std::vector<PolicyRun>
figure5Roster()
{
    using sim::PolicyKind;
    return {
        {"Ideal", PolicyKind::Ideal, 16ULL << 30},
        {"RandSieve-BlkD", PolicyKind::RandSieveBlkD, 16ULL << 30},
        {"SieveStore-D", PolicyKind::SieveStoreD, 16ULL << 30},
        {"SieveStore-C", PolicyKind::SieveStoreC, 16ULL << 30},
        {"RandSieve-C", PolicyKind::RandSieveC, 16ULL << 30},
        {"AOD-16GB", PolicyKind::AOD, 16ULL << 30},
        {"WMNA-16GB", PolicyKind::WMNA, 16ULL << 30},
        {"AOD-32GB", PolicyKind::AOD, 32ULL << 30},
        {"WMNA-32GB", PolicyKind::WMNA, 32ULL << 30},
    };
}

std::unique_ptr<core::Appliance>
runPolicy(const PolicyRun &run, const BenchOptions &opts,
          trace::SyntheticEnsembleGenerator &gen)
{
    sim::PolicyConfig pc;
    pc.kind = run.kind == sim::PolicyKind::SieveStoreC ? opts.sieve_kind
                                                       : run.kind;
    pc.sieve_c.imct_slots = opts.scaledImctSlots();
    // Shadow candidates track capture gradients, not the full block
    // population, so their IMCTs run an order smaller than production.
    pc.adaptive.imct_slots =
        std::max<size_t>(4096, opts.scaledImctSlots() / 8);

    core::ApplianceConfig ac;
    ac.cache_blocks = opts.scaledCacheBlocks(run.cache_bytes);
    ac.ssd = opts.scaledSsd(run.cache_bytes);

    std::unique_ptr<core::Appliance> app;
    if (run.kind == sim::PolicyKind::Ideal) {
        app = sim::makeIdealAppliance(gen, pc, ac);
    } else {
        gen.reset();
        app = sim::makeAppliance(pc, ac);
    }
    sim::DriverOptions dopts;
    dopts.batch = opts.batch;
    sim::runTrace(gen, *app, dopts);
    gen.reset();
    return app;
}

void
emit(const stats::Table &table, const BenchOptions &opts)
{
    if (opts.json)
        table.printJson(std::cout);
    else if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

void
printBanner(const std::string &title, const std::string &paper_ref,
            const BenchOptions &opts)
{
    if (opts.json)
        return;
    std::printf("== %s ==\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("workload:   synthetic 13-server ensemble at 1/%.0f of "
                "the paper's traffic (seed 0x%llx)\n\n",
                opts.inv_scale,
                static_cast<unsigned long long>(opts.seed));
}

} // namespace bench
} // namespace sievestore

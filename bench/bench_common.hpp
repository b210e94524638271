/**
 * @file
 * Shared infrastructure for the figure/table benchmark harnesses.
 *
 * Every bench binary regenerates one of the paper's artifacts on the
 * synthetic ensemble workload. Common concerns handled here: scale
 * selection (--scale-denominator N runs at 1/N of the paper's traffic;
 * cache capacities and SSD ratings are scaled identically so relative
 * results keep their shape), seeding, CSV output, and the standard
 * policy roster of Figure 5.
 */

#ifndef SIEVESTORE_BENCH_BENCH_COMMON_HPP
#define SIEVESTORE_BENCH_BENCH_COMMON_HPP

#include <memory>
#include <string>
#include <vector>

#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "stats/table.hpp"
#include "trace/synthetic.hpp"

namespace sievestore {
namespace bench {

/** Command-line options shared by all benches. */
struct BenchOptions
{
    /** Trace volume = paper volume / inv_scale. */
    double inv_scale = 4096.0;
    /** Generator master seed. */
    uint64_t seed = 0x51e5e5704eULL;
    /** Emit CSV instead of aligned tables. */
    bool csv = false;
    /** Emit JSON instead of aligned tables (takes precedence over
     * csv; machine-readable output for the CI perf-smoke job). */
    bool json = false;
    /** Requests per replay batch (see sim/batch.hpp). A pure
     * performance knob: results are independent of it. */
    size_t batch = trace::kDefaultBatchRequests;
    /** Continuous-sieve kind substituted wherever a roster entry
     * selects SieveStore-C: `--sieve=adaptive` swaps in the online
     * adaptive sieve across every bench without editing rosters. */
    sim::PolicyKind sieve_kind = sim::PolicyKind::SieveStoreC;

    /** Parse --scale-denominator/--seed/--csv/--json/--batch/--sieve;
     * exits on --help. */
    static BenchOptions parse(int argc, char **argv);

    /** Synthetic generator configuration at this scale. */
    trace::SyntheticConfig traceConfig() const;

    /** Scaled SSD model (IOPS shrink with the trace). */
    ssd::SsdModel scaledSsd(uint64_t capacity_bytes) const;

    /** Scaled cache capacity in 512-byte blocks. */
    uint64_t scaledCacheBlocks(uint64_t full_bytes) const;

    /** IMCT sized for this scale: 450 M 8-byte slots (3.6 GB) at full
     * scale, inside the paper's ~8 GB metastate budget. */
    size_t scaledImctSlots() const;
};

/** One evaluated configuration of Figure 5/6/7. */
struct PolicyRun
{
    std::string label;
    sim::PolicyKind kind;
    /** Full-scale cache bytes (16 or 32 GB in the paper). */
    uint64_t cache_bytes;
};

/** The Figure 5 roster: Ideal, sieves, random sieves, unsieved 16/32 GB. */
std::vector<PolicyRun> figure5Roster();

/**
 * Build the appliance for a roster entry and replay the whole trace
 * through it. Handles the Ideal profiling pass. The generator is reset
 * before and after.
 */
std::unique_ptr<core::Appliance>
runPolicy(const PolicyRun &run, const BenchOptions &opts,
          trace::SyntheticEnsembleGenerator &gen);

/** Print the standard bench banner (scale, seed, paper pointer).
 * Suppressed under --json so stdout stays parseable. */
void printBanner(const std::string &title, const std::string &paper_ref,
                 const BenchOptions &opts);

/** Emit a table to stdout in the format the options selected. */
void emit(const stats::Table &table, const BenchOptions &opts);

/**
 * printf-style human commentary around the tables (headline ratios,
 * paper cross-references, alternate renderings). Suppressed entirely
 * under --json so stdout carries nothing but the emitted tables: one
 * JSON array per table, a whitespace-separated stream when a bench
 * prints several.
 */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace bench
} // namespace sievestore

#endif // SIEVESTORE_BENCH_BENCH_COMMON_HPP

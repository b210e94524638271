/**
 * @file
 * Storage differential: model-vs-measured divergence on one trace.
 *
 * Replays the same trace twice through identically-configured
 * appliances — once with the AnalyticBackend (the model echoing its
 * own service times) and once with the FileBackend (real O_DIRECT
 * block I/O) — then compares the runs day by day.
 *
 * Two comparisons with very different standards:
 *
 *  - Model-side fields (hits, SSD I/O charges, storage op/error
 *    counts) must be BIT-IDENTICAL. Backends observe, they never
 *    decide, so any divergence here is a contract violation — a
 *    backend answer leaked into a sieve/cache/eviction decision.
 *  - Measured latency (storage_*_ns) is expected to diverge: that
 *    divergence IS the validation signal, reported per day as a
 *    measured/predicted ratio and optionally gated by a tolerance.
 *
 * Test support (ss_test_support): test_storage_differential is its
 * caller.
 */

#ifndef SIEVESTORE_TESTS_SUPPORT_STORAGE_DIFF_HPP
#define SIEVESTORE_TESTS_SUPPORT_STORAGE_DIFF_HPP

#include <vector>

#include "core/appliance.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/** One trace replayed through both backends. */
struct StorageDiffConfig
{
    /** Appliance configuration shared by both runs; its `backend`
     * field is overridden per run (Analytic, then File). */
    core::ApplianceConfig appliance;
    /** Allocation policy shared by both runs. */
    PolicyConfig policy;
    /** FileBackend knobs for the measured run. */
    storage::FileBackendConfig file;
    /**
     * Per-day divergence gate: |measured - predicted| total latency
     * in nanoseconds above which within_tolerance flips false. 0
     * disables the gate (report-only) — a real device diverges from
     * the X25-E datasheet by orders of magnitude, so CI uses the
     * gate only with tolerances sized to the host.
     */
    uint64_t ns_tolerance = 0;
    /** Replay options (invariant audits, batch width). */
    DriverOptions driver;
};

/** Per-day model-vs-measured latency row. */
struct StorageDiffDay
{
    int day = 0;
    /** Analytic run's total storage latency (reads + writes), ns. */
    uint64_t predicted_ns = 0;
    /** File run's total measured latency, ns. */
    uint64_t measured_ns = 0;
    /** measured / predicted (0 when predicted is 0). */
    double ratio = 0.0;
};

/** Differential outcome (see ok()). */
struct StorageDiffResult
{
    /** Every model-side DailyReport field bit-identical per day. */
    bool model_identical = false;
    /** All days within ns_tolerance (vacuously true when 0). */
    bool within_tolerance = true;
    std::vector<core::DailyReport> analytic_days;
    std::vector<core::DailyReport> file_days;
    std::vector<StorageDiffDay> days;

    bool ok() const { return model_identical && within_tolerance; }
};

/**
 * Run the differential. Resets the reader before each replay, so any
 * resettable TraceReader works. Aborts (SIEVE_CHECK) if the config
 * pins a custom backend factory — the two runs must control the
 * backend themselves.
 */
StorageDiffResult runStorageDifferential(trace::TraceReader &reader,
                                         const StorageDiffConfig &config);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_TESTS_SUPPORT_STORAGE_DIFF_HPP

/**
 * @file
 * Experiment plumbing shared by the benchmark harnesses: the policy
 * factory covering every configuration in the paper's evaluation, and a
 * summary structure for occupancy-derived cost metrics.
 */

#ifndef SIEVESTORE_SIM_EXPERIMENT_HPP
#define SIEVESTORE_SIM_EXPERIMENT_HPP

#include <memory>
#include <string>

#include "core/appliance.hpp"
#include "core/sievestore_c.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/** The allocation configurations evaluated in the paper. */
enum class PolicyKind {
    /** Per-day oracle: top 1 % of each day's blocks (discrete). */
    Ideal,
    /** SieveStore-D: ADBA, threshold 10/day (discrete). */
    SieveStoreD,
    /** SieveStore-C: two-tier continuous sieve. */
    SieveStoreC,
    /** Random 1 % of each day's blocks (discrete). */
    RandSieveBlkD,
    /** Random 1 % of misses (continuous). */
    RandSieveC,
    /** Allocate-on-demand (continuous, unsieved). */
    AOD,
    /** Write-miss no-allocate (continuous, unsieved). */
    WMNA,
    /** SieveStore-C with online (t1, t2) adaptation (continuous). */
    Adaptive,
};

/** Display name matching the paper's figures. */
const char *policyKindName(PolicyKind kind);

/** Factory parameters for one policy instance. */
struct PolicyConfig
{
    PolicyKind kind = PolicyKind::SieveStoreC;
    /** SieveStore-D access-count threshold (paper: 10). */
    uint64_t adba_threshold = 10;
    /** Use the on-disk map-reduce access log for SieveStore-D. */
    bool adba_disk_log = false;
    /** Scratch directory for the disk log. */
    std::string adba_log_dir = "/tmp/sievestore-adba";
    /** RandSieve allocation fraction/probability (paper: 1 %). */
    double rand_fraction = 0.01;
    /** Ideal selector's top fraction (paper: 1 %). */
    double ideal_fraction = 0.01;
    /** SieveStore-C tunables (thresholds, window, IMCT size). Also
     * seeds the adaptive sieve's production setting. */
    core::SieveStoreCConfig sieve_c;
    /** Adaptive-sieve tunables (PolicyKind::Adaptive); its `base` is
     * overridden by `sieve_c` above so the two kinds share one
     * starting configuration. */
    core::AdaptiveSieveConfig adaptive;
    /** Seed for randomized policies. */
    uint64_t seed = 17;
};

/**
 * Build an appliance for a policy configuration.
 * PolicyKind::Ideal needs future knowledge and a profiling pass; use
 * makeIdealAppliance for it (this factory rejects it).
 */
std::unique_ptr<core::Appliance>
makeAppliance(const PolicyConfig &policy,
              const core::ApplianceConfig &appliance);

/**
 * Profiling pass: the most-accessed `fraction` of blocks for every
 * calendar day of the trace. Resets the reader before and after.
 */
std::vector<std::vector<trace::BlockId>>
perDayTopBlocks(trace::TraceReader &reader, double fraction);

/**
 * Build the Section 5.1 "ideal" appliance: a profiling pass computes
 * each day's top blocks; an OracleDaySelector swaps them in at day
 * boundaries and the first day's set is preloaded.
 */
std::unique_ptr<core::Appliance>
makeIdealAppliance(trace::TraceReader &reader,
                   const PolicyConfig &policy,
                   const core::ApplianceConfig &appliance);

/** Occupancy-derived cost summary (Figures 8/9). */
struct CostSummary
{
    uint32_t max_drives = 0;
    uint32_t drives_999 = 0; ///< drives for 99.9 % minute coverage
    uint32_t drives_99 = 0;
    uint32_t drives_90 = 0;
    double coverage_one_drive = 0.0;
    double endurance_years = 0.0;
};

/** Summarize an appliance's occupancy tracker after a run. */
CostSummary summarizeCost(const core::Appliance &appliance,
                          double trace_days);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_EXPERIMENT_HPP

/**
 * @file
 * The SieveStore appliance: cache + sieve + SSD accounting.
 *
 * Models the transparent caching appliance of Figure 4: every block
 * request of the ensemble flows through it; hits are served from the
 * SSD cache, misses are served by the backing ensemble and may trigger
 * allocation. Faithful to the paper's methodology (Section 4):
 *
 *  - accounting is at 512-byte block granularity; SSD costing is in
 *    4 KB I/O units with sub-4 KB I/Os charged as full units;
 *  - an allocation "was assumed to start at the time that the
 *    corresponding request in the original trace completed", with
 *    linear interpolation for individual blocks of multi-block requests
 *    (the allocation queue below);
 *  - continuous configurations use LRU replacement; discrete
 *    configurations batch-allocate at epoch boundaries with
 *    cancellation of retained blocks, and their staggered batch moves
 *    are excluded from drive-occupancy by default ("SieveStore-D
 *    assumes that batch allocation can be done during periods of low
 *    disk activity").
 */

#ifndef SIEVESTORE_CORE_APPLIANCE_HPP
#define SIEVESTORE_CORE_APPLIANCE_HPP

#include <climits>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/block_cache.hpp"
#include "core/alloc_policy.hpp"
#include "core/discrete.hpp"
#include "core/sieve_spec.hpp"
#include "ssd/occupancy.hpp"
#include "storage/backend.hpp"
#include "trace/request.hpp"
#include "util/flat_index.hpp"
#include "util/flow_annotations.hpp"

namespace sievestore {
namespace core {

/** Appliance configuration. */
struct ApplianceConfig
{
    /** Cache capacity in 512-byte blocks (16 GB => 31.25 M blocks). */
    uint64_t cache_blocks = (16ULL << 30) / trace::kBlockBytes;
    /** SSD device model for occupancy/endurance accounting. */
    ssd::SsdModel ssd = ssd::SsdModel::intelX25E();
    /** Track per-minute drive occupancy (Figures 8/9). */
    bool track_occupancy = true;
    /** Charge discrete batch moves to drive occupancy (ablation). */
    bool charge_batch_to_occupancy = false;
    /**
     * Built-in eviction policy for the cache's flat engine (defaults
     * to the paper's LRU). Ignored when `replacement` is set.
     */
    cache::EvictionSpec eviction;
    /**
     * Custom replacement-policy factory; null selects the flat engine
     * with `eviction`. Used by the Section 3.1 oracle-replacement
     * experiments (OracleRetain needs per-day protected-set state).
     */
    std::function<std::unique_ptr<cache::ReplacementPolicy>()>
        replacement;
    /**
     * Built-in continuous sieve for the spec-driven constructor
     * (defaults to AOD), run by the switch-dispatch FlatSieve engine.
     * Ignored when `allocation` is set or when a policy/selector is
     * passed explicitly.
     */
    SievePolicySpec sieve;
    /**
     * Custom allocation-policy factory; null selects `sieve` above.
     * Mirrors `replacement`: the flat-vs-reference differential suite
     * uses it to run the virtual reference policy in FlatSieve's
     * custom mode.
     */
    std::function<std::unique_ptr<AllocationPolicy>()> allocation;
    /**
     * Storage observation engine: every 4 KB I/O unit the analytic
     * model charges is also drained through this backend (analytic
     * echo, real O_DIRECT block file, or none). Observation only —
     * no decision above depends on the backend's answers.
     */
    storage::BackendConfig backend;
};

/** Per-calendar-day accounting (Figures 5, 6, 7). */
struct DailyReport
{
    // Model-side fields are sieve-flow taint sinks: they are the
    // paper's oracle accounting and must stay bit-identical across
    // storage backends, so measured data must never reach them.
    SIEVE_TAINT_SINK uint64_t accesses = 0;
    SIEVE_TAINT_SINK uint64_t read_accesses = 0;
    SIEVE_TAINT_SINK uint64_t hits = 0;
    SIEVE_TAINT_SINK uint64_t read_hits = 0;
    SIEVE_TAINT_SINK uint64_t write_hits = 0;
    /** Allocation-writes in 512-byte blocks (continuous policies). */
    SIEVE_TAINT_SINK uint64_t allocation_write_blocks = 0;
    /** Blocks moved by a discrete epoch batch, attributed to the day
     * the blocks serve (staggered during that day). */
    SIEVE_TAINT_SINK uint64_t batch_moved_blocks = 0;
    /** 4 KB SSD I/Os for hit service. */
    SIEVE_TAINT_SINK uint64_t ssd_read_ios = 0;
    SIEVE_TAINT_SINK uint64_t ssd_write_ios = 0;
    /** 4 KB SSD I/Os for allocation-writes. */
    SIEVE_TAINT_SINK uint64_t ssd_alloc_ios = 0;

    /**
     * Online sieve-tuning telemetry (adaptive sieve): the thresholds
     * in force after this day's close and the switches performed at
     * it (0 or 1 per day). All zero when the active sieve does not
     * tune itself. Model-side like the counters above: the tuner sees
     * only oracle accounting, never measured data. add() merges the
     * thresholds by max — they are day-level settings, not volumes —
     * and sums the switches, so whole-trace totals and shard merges
     * read "tightest setting reached / total switches".
     */
    SIEVE_TAINT_SINK uint64_t tune_t1 = 0;
    SIEVE_TAINT_SINK uint64_t tune_t2 = 0;
    SIEVE_TAINT_SINK uint64_t tune_switches = 0;

    /**
     * Measured device observation (storage::Backend): 4 KB reads and
     * writes that completed, failures, and summed measured latency,
     * attributed to the day the model charged the matching I/O. All
     * zero when the backend is BackendKind::None. The model fields
     * above never depend on these — backends observe, never decide —
     * so they are bit-identical across backends by construction.
     */
    // The storage_* columns are the sanctioned landing zone for
    // measured data: SIEVE_TAINT_SOURCE on a field makes every write
    // of tainted data into it an explicit, report-listed flow.
    SIEVE_TAINT_SOURCE uint64_t storage_read_ios = 0;
    SIEVE_TAINT_SOURCE uint64_t storage_write_ios = 0;
    SIEVE_TAINT_SOURCE uint64_t storage_read_errors = 0;
    SIEVE_TAINT_SOURCE uint64_t storage_write_errors = 0;
    SIEVE_TAINT_SOURCE uint64_t storage_read_ns = 0;
    SIEVE_TAINT_SOURCE uint64_t storage_write_ns = 0;

    /** Field-wise accumulation (whole-trace totals, shard merges). */
    void add(const DailyReport &other);

    uint64_t misses() const { return accesses - hits; }
    double
    hitRatio() const
    {
        return accesses ? static_cast<double>(hits) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
    /** All allocation-write blocks including batch moves. */
    uint64_t
    totalAllocationBlocks() const
    {
        return allocation_write_blocks + batch_moved_blocks;
    }
    /** Total 512-byte SSD block operations (Figure 7's Y axis). */
    uint64_t
    totalSsdBlockOps() const
    {
        return hits + totalAllocationBlocks();
    }
};

/** Sum of daily reports. */
DailyReport sumReports(const std::vector<DailyReport> &days);

/**
 * Always true: the batched probe-gather body is the appliance's only
 * per-request body. Kept solely because bench/e2e's host block still
 * reports it as `batch_kernel`; delete it together with that field.
 */
inline bool batchKernelEnabled() { return true; }

/**
 * The appliance simulator. Construct with either a continuous
 * AllocationPolicy (SieveStore-C, AOD, WMNA, RandSieve-C) or a
 * DiscreteSelector (SieveStore-D, RandSieve-BlkD, Ideal); drive it with
 * time-ordered requests and day-boundary callbacks (the sim::
 * drivers do this).
 */
class Appliance
{
  public:
    /**
     * Continuous-allocation appliance driven by config.sieve (or the
     * config.allocation factory when set). This is the hot-path
     * constructor: the sieve consultation is switch dispatch with all
     * policy state held by value.
     */
    explicit Appliance(ApplianceConfig config);

    /** Continuous-allocation appliance with an explicit policy (run in
     * FlatSieve's custom mode). */
    Appliance(ApplianceConfig config,
              std::unique_ptr<AllocationPolicy> policy);

    /** Discrete-allocation appliance. */
    Appliance(ApplianceConfig config,
              std::unique_ptr<DiscreteSelector> selector);

    /**
     * Preload the cache before replay (the oracle's first-day set).
     * Moves are attributed to `serve_day`'s batch count.
     */
    void preload(const std::vector<trace::BlockId> &blocks, int serve_day);

    /** Process one multi-block request (time-ordered). */
    void processRequest(const trace::Request &req);

    /**
     * Process a time-ordered run of requests that all fall inside one
     * calendar day (the sim:: batching facade slices batches at day
     * boundaries). Semantically identical to calling processRequest on
     * each element; the batch form hoists the day-report lookup out of
     * the per-request path and, when every engine on the path is flat
     * (flatEnginesOnly()), arms SIEVE_ASSERT_NO_ALLOC over the whole
     * batch.
     */
    void processBatch(std::span<const trace::Request> batch);

    /**
     * Close calendar day `day`: drain allocations due within it and,
     * for discrete appliances, run the epoch boundary — the new block
     * set is installed and its moves attributed to day + 1. Days must
     * strictly increase across calls (checked); the parallel sharded
     * driver relies on this monotone day cursor to audit that every
     * shard sits at the same epoch boundary at its day barriers.
     */
    void finishDay(int day);

    /**
     * Day most recently closed by finishDay(), or INT_MIN if none yet.
     * The replay drivers use it as the appliance's epoch cursor.
     */
    int lastFinishedDay() const { return last_finished_day; }

    /** Drain every pending allocation (end of trace). */
    void finishTrace();

    /** Per-day accounting; index = calendar day. */
    const std::vector<DailyReport> &daily() const { return reports; }

    /** Whole-trace totals. */
    DailyReport totals() const { return sumReports(reports); }

    /** Occupancy tracker (null when track_occupancy is false). */
    const ssd::DriveOccupancyTracker *occupancy() const;

    /** Storage observation backend (null for BackendKind::None). */
    const storage::Backend *storageBackend() const
    {
        return backend_.get();
    }

    /** Policy / selector name. */
    const char *policyName() const;

    const cache::BlockCache &blockCache() const { return cache_; }
    /** Mutable cache access (oracle experiments install protected
     * sets on the replacement policy between days). */
    cache::BlockCache &blockCache() { return cache_; }

    /** Metastate footprint of the sieve structures, in bytes. */
    uint64_t metastateBytes() const;

    /**
     * Audit appliance-level accounting: the cache and its policy agree
     * on residency, every in-flight allocation appears in both the
     * queue and the pending set, per-day reports are internally
     * consistent (hits never exceed accesses, read + write hits equal
     * total hits), and the sieve's own invariants hold. O(cache size);
     * aborts on violation. The sim drivers call this at day boundaries
     * when invariant auditing is enabled (see sim::DriverOptions).
     */
    void checkInvariants() const;

  private:
    DailyReport &reportFor(util::TimeUs t);
    void drainAllocations(util::TimeUs up_to);
    /**
     * The per-request body; `rep` is the request's day report. Each
     * chunk of <= cache::BlockCache::kProbeBatch blocks runs
     * probe-gather (one findBatch over the cache index), then
     * sieve-prefetch (IMCT/MCT/pending lines for the gathered misses),
     * then an in-order decide+mutate pass, and finally hands the
     * chunk's accesses to the discrete selector, if any. The gathered
     * pointers and hit/miss partition are exact: nothing mutates the
     * cache index within a request (allocations drain between
     * requests, hits only touch policy state).
     */
    void processRequestInto(const trace::Request &req, DailyReport &rep);
    /**
     * True when every engine on the request path is flat (spec-driven
     * sieve, flat cache, no discrete selector, no occupancy tracker):
     * the configurations whose hot loop is claimed — and then
     * enforced — to be allocation-free per batch. It selects the
     * no-alloc region only; every configuration runs the same body.
     */
    bool flatEnginesOnly() const;
    void initOccupancy();

    /**
     * Storage observation staging: the request path appends one
     * StorageOp per model-charged 4 KB unit to a fixed-size stage
     * array and drains it through backend_ in batches, so the backend
     * sees the same batch-shaped submission the lookup kernel uses.
     * The stage/flush path allocates nothing (the arrays are members,
     * the flush's reportFor only re-reads day slots that already
     * exist), so the batch-level no-alloc regions stay armed across a
     * drain. All helpers early-return when no backend is configured.
     */
    void stageRead(util::TimeUs t, trace::BlockId block);
    void stageWrite(util::TimeUs t, trace::BlockId block);
    void stageTrim(util::TimeUs t, trace::BlockId block);
    void flushStorageReads();
    void flushStorageWrites();
    void flushStorageTrims();
    /** Drain all three stage arrays. */
    void flushStorage();
    /** Stage page-coalesced writes and trims for the discrete batch
     * move captured in the batch scratch vectors, at time `t`. */
    void stageBatchMove(util::TimeUs t);

    ApplianceConfig cfg;
    /** Continuous sieve (spec-driven or custom); exactly one of the
     * sieve and the selector is set. */
    std::optional<FlatSieve> sieve_;
    std::unique_ptr<DiscreteSelector> selector_;
    cache::BlockCache cache_;
    std::unique_ptr<ssd::DriveOccupancyTracker> occupancy_;

    /** Pending allocation, applied at block completion time. */
    struct PendingAlloc
    {
        util::TimeUs completion;
        trace::BlockId block;
        bool new_io_unit; ///< first block of its 4 KB unit in the request

        bool
        operator>(const PendingAlloc &o) const
        {
            return completion > o.completion;
        }
    };
    /** Schedule an allocation (min-heap push with growth exemption). */
    void pushAlloc(const PendingAlloc &ev);
    /** Track `block` as in flight (set insert with growth exemption). */
    void notePending(trace::BlockId block);

    /**
     * Min-heap on completion time, kept as a raw vector driven by
     * std::push_heap/pop_heap with the same std::greater comparator a
     * std::priority_queue would use — the standard specifies
     * priority_queue in terms of exactly these algorithms, so the
     * element order (including equal-completion ties, which feed LRU
     * recency) is bit-identical to the former priority_queue member.
     * A raw vector exposes capacity, letting the batch-level no-alloc
     * regions exempt only genuine growth.
     */
    std::vector<PendingAlloc> alloc_queue;
    /** In-flight allocation guard set (payload unused). */
    util::FlatIndex<uint8_t> pending;

    /** Epoch cursor: last day closed by finishDay(). */
    int last_finished_day = INT_MIN;

    std::vector<DailyReport> reports;

    /** Batch width of the storage observation drain. */
    static constexpr size_t kStorageStage = 256;
    /** Observation engine (null skips op emission entirely). */
    std::unique_ptr<storage::Backend> backend_;
    storage::StorageOp stage_reads_[kStorageStage];
    storage::StorageOp stage_writes_[kStorageStage];
    storage::StorageOp stage_trims_[kStorageStage];
    /** Per-batch measured latencies filled by the backend's
     * readBlocks/writeBlocks out-param (sieve-flow taint source). */
    SIEVE_TAINT_SOURCE uint32_t stage_lat_[kStorageStage];
    size_t n_stage_reads_ = 0;
    size_t n_stage_writes_ = 0;
    size_t n_stage_trims_ = 0;
    /** The discrete selector's staged observations for one probe
     * chunk. A member, not a per-request local: trace::BlockAccess
     * has default member initializers, so a local array would be
     * zero-filled on every request. */
    trace::BlockAccess observed_[cache::BlockCache::kProbeBatch];
    /** batchReplace move capture, reused across epoch boundaries. */
    std::vector<trace::BlockId> batch_alloc_scratch_;
    std::vector<trace::BlockId> batch_evict_scratch_;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_APPLIANCE_HPP

/**
 * @file
 * Pluggable storage backend behind the analytic SSD model.
 *
 * The appliance charges SSD cost analytically (ssd::SsdModel) — that
 * accounting is the paper's oracle and is never altered by this
 * layer. A Backend is an *observation* channel: every 4 KB I/O unit
 * the model charges is also emitted as a StorageOp and drained
 * through the configured backend in batches mirroring the request
 * path's batch shapes. The AnalyticBackend answers with the model's
 * own service times (bit-deterministic, no syscalls); the
 * FileBackend performs real O_DIRECT block I/O and reports measured
 * latencies. Divergence between the two on the same trace is the
 * model-validation signal.
 *
 * Contract: backends observe, they never decide. No sieve, cache, or
 * eviction decision may depend on a backend's answer — the storage
 * differential (test_storage_differential) pins model-side
 * DailyReport fields bit-identical across backends.
 */

#ifndef SIEVESTORE_STORAGE_BACKEND_HPP
#define SIEVESTORE_STORAGE_BACKEND_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "ssd/ssd_model.hpp"
#include "trace/block.hpp"
#include "util/flow_annotations.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace storage {

/**
 * One 4 KB device I/O unit, as charged by the appliance's
 * page-coalescing accounting. `page` is the BlockId of the unit's
 * first 512-byte block (trace::pageStart); `time` is the simulated
 * timestamp the model charged the I/O to, used to attribute the
 * measured result to the right DailyReport day.
 */
struct StorageOp
{
    util::TimeUs time;
    trace::BlockId page;
};

/**
 * Sentinel latency marking a failed op (short read/write, I/O error,
 * injected fault). The appliance counts it as a storage error and
 * degrades to the no-cache path for that I/O — the request was
 * already served by the model, so a device failure changes
 * observation counters only, never accounting or policy.
 */
inline constexpr uint32_t kFailedOp = UINT32_MAX;

/** log2-bucketed latency histogram width: bucket = bit_width(ns),
 * so bucket 0 holds 0 ns and bucket 32 holds >= 2^31 ns. */
inline constexpr size_t kLatencyBuckets = 33;

/** Histogram bucket for a per-op latency in nanoseconds. */
inline constexpr size_t
latencyBucket(uint32_t ns)
{
    return static_cast<size_t>(std::bit_width(ns));
}

/** Cumulative backend counters (whole-run; per-day attribution lives
 * in core::DailyReport). */
struct BackendStats
{
    /** True when the data path opened its file with O_DIRECT. */
    bool direct_io = false;
    // Every counter below is device-observed (sieve-flow taint
    // source): reads of these fields carry measured taint and may
    // reach reports only, never a sieve/cache/eviction decision.
    SIEVE_TAINT_SOURCE uint64_t read_ops = 0;  ///< 4 KB reads OK
    SIEVE_TAINT_SOURCE uint64_t write_ops = 0; ///< 4 KB writes OK
    SIEVE_TAINT_SOURCE uint64_t trim_ops = 0;  ///< eviction trims
    SIEVE_TAINT_SOURCE uint64_t read_errors = 0;
    SIEVE_TAINT_SOURCE uint64_t write_errors = 0;
    /** Total measured read latency, ns. */
    SIEVE_TAINT_SOURCE uint64_t read_ns = 0;
    /** Total measured write latency, ns. */
    SIEVE_TAINT_SOURCE uint64_t write_ns = 0;
    SIEVE_TAINT_SOURCE std::array<uint64_t, kLatencyBuckets>
        read_latency_log2{};
    SIEVE_TAINT_SOURCE std::array<uint64_t, kLatencyBuckets>
        write_latency_log2{};
};

/**
 * Batch-shaped storage engine interface. Latency spans are filled
 * per op in nanoseconds, kFailedOp marking failures; `lat_ns` must
 * be at least as long as `ops`. The submit paths are allocation-free
 * (enforced transitively by the appliance's batch-level AllocGuard
 * regions); SIEVE_MAY_ALLOC setup happens at construction only.
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** Engine name ("analytic", "file", ...). */
    virtual const char *name() const = 0;

    /** Read a batch of 4 KB units. Taint source: the filled
     * `lat_ns` span is measured device data. */
    virtual SIEVE_TAINT_SOURCE void
    readBlocks(std::span<const StorageOp> ops,
               std::span<uint32_t> lat_ns) = 0;

    /** Write a batch of 4 KB units. Taint source: the filled
     * `lat_ns` span is measured device data. */
    virtual SIEVE_TAINT_SOURCE void
    writeBlocks(std::span<const StorageOp> ops,
                std::span<uint32_t> lat_ns) = 0;

    /** Note evicted 4 KB units (default: count only). */
    virtual void trimBlocks(std::span<const StorageOp> ops);

    /** Flush any device-side buffering (default: no-op). */
    virtual void flush();

    /** Taint source: measured counters and histograms. */
    SIEVE_TAINT_SOURCE const BackendStats &stats() const
    {
        return stats_;
    }

    /** Audit internal consistency; aborts on violation. */
    virtual void checkInvariants() const;

  protected:
    /** Fold one completed read/write into the counters. */
    void noteRead(uint32_t lat_ns);
    void noteWrite(uint32_t lat_ns);
    void noteReadError() { ++stats_.read_errors; }
    void noteWriteError() { ++stats_.write_errors; }

    BackendStats stats_;
};

/** Backend selection for ApplianceConfig::backend. */
enum class BackendKind
{
    /** No backend: the appliance skips op emission entirely. */
    None,
    /** Model-echo backend: deterministic SsdModel service times. */
    Analytic,
    /** Real block file: O_DIRECT + pread/pwrite worker pool. */
    File,
};

/** FileBackend knobs (see file_backend.hpp for semantics). */
struct FileBackendConfig
{
    /** Backing file path; empty creates an unlinked temp file under
     * $TMPDIR (or /tmp). */
    std::string path;
    /** Store size in bytes; 0 derives it from the cache capacity. */
    uint64_t capacity_bytes = 0;
    /** I/O worker threads; 0 runs every op on the submitting
     * thread. */
    unsigned workers = 2;
};

/** Backend selection carried by core::ApplianceConfig. */
struct BackendConfig
{
    BackendKind kind = BackendKind::Analytic;
    FileBackendConfig file;
    /**
     * Custom backend factory; when set it overrides `kind`. Mirrors
     * ApplianceConfig::replacement/allocation — the fault-injection
     * tests use it to wrap a real engine in a decorator.
     */
    std::function<std::unique_ptr<Backend>()> factory;
};

/**
 * Backend factory. Returns null for BackendKind::None. `ssd` feeds
 * the AnalyticBackend's service times; `cache_blocks` sizes the
 * FileBackend's store when the config leaves capacity_bytes at 0.
 */
std::unique_ptr<Backend> makeBackend(const BackendConfig &config,
                                     const ssd::SsdModel &ssd,
                                     uint64_t cache_blocks);

} // namespace storage
} // namespace sievestore

#endif // SIEVESTORE_STORAGE_BACKEND_HPP

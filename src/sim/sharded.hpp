/**
 * @file
 * Sharded SieveStore (the paper's Section 7 "scaling" direction).
 *
 * One appliance node ultimately saturates: the paper shows a single
 * enterprise SSD absorbs the 13-server ensemble, but a larger ensemble
 * (or a faster one) needs more nodes. The natural scale-out keeps the
 * ensemble-level sharing property by hash-partitioning the *block
 * space* — not the servers — across N appliance nodes: every node
 * still sees a uniform slice of every server's hot set, so capacity is
 * never stranded the way a per-server split strands it (observation
 * O2), while request traffic and metastate divide ~evenly.
 *
 * Requests are split at 4 KB page granularity (a page never straddles
 * nodes, so page-coalesced SSD I/O accounting is preserved). Both
 * drivers are the replay engine of sim/driver.hpp with that split,
 * runSharded without worker threads and runShardedParallel with them.
 */

#ifndef SIEVESTORE_SIM_SHARDED_HPP
#define SIEVESTORE_SIM_SHARDED_HPP

#include <memory>
#include <vector>

#include "sim/experiment.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/**
 * Compile-time cap on requests carried per parallel-replay queue item
 * (the SPSC hand-off batch). The runtime ShardedConfig::batch knob is
 * clamped to it on the queue path; larger decode batches simply span
 * several queue items.
 */
inline constexpr size_t kQueueBatchRequests = 64;

/** Worker-thread options of runShardedParallel. */
struct ParallelOptions
{
    /**
     * Worker threads (0 = one per shard). Clamped to the shard count;
     * with fewer threads than shards, shards are distributed
     * round-robin and each worker multiplexes its queues.
     */
    size_t threads = 0;
    /**
     * Requests buffered per shard queue. Divided by the hand-off
     * batch size to get the ring's item capacity (at least 2 items,
     * rounded up to a power of two), so backpressure semantics track
     * requests regardless of batching.
     */
    size_t queue_depth = 4096;
};

/** Configuration for a sharded deployment. */
struct ShardedConfig
{
    /** Number of appliance nodes (>= 1). */
    size_t shards = 2;
    /** Per-node policy (instantiated independently per node). */
    PolicyConfig policy;
    /**
     * Per-node appliance template. cache_blocks and the SSD model are
     * per *node*: a 2-shard deployment with 8 GB nodes has 16 GB total.
     */
    core::ApplianceConfig node;
    /** Hash seed for the page -> shard mapping. */
    uint64_t seed = 0;
    /**
     * Requests per batch on the replay path (decode, per-shard
     * accumulation, and — in the parallel driver — SPSC hand-off,
     * where it is capped at kQueueBatchRequests per queue item).
     * Results are independent of this value; 1 reproduces the
     * per-request hand-off.
     */
    size_t batch = trace::kDefaultBatchRequests;
    /** Parallel replay knobs (used by runShardedParallel only). */
    ParallelOptions parallel;
};

/** Outcome of a sharded run. */
struct ShardedResult
{
    /** One appliance per node, in shard order. */
    std::vector<std::unique_ptr<core::Appliance>> nodes;

    /** Reports summed across nodes. */
    core::DailyReport totals() const;
    /** Largest per-node drives-needed at the given coverage. */
    uint32_t maxDrivesAtCoverage(double coverage) const;
    /** Worst-case spread: max node accesses / mean node accesses. */
    double loadImbalance() const;

    /**
     * Audit the deployment: at least one live node, every node's own
     * invariants hold, and the summed totals are consistent (hits
     * never exceed accesses). Aborts on violation.
     */
    void checkInvariants() const;
};

/** Shard index of a block (stable page-granular hash). */
size_t shardOf(trace::BlockId block, size_t shards, uint64_t seed);

/**
 * Instantiate the per-node appliances for a sharded deployment
 * (decorrelated seeds, per-shard ADBA log directories). Shared by the
 * serial and parallel drivers so both replay against identical nodes.
 * Throws FatalError on zero shards or the oracle policy.
 */
std::vector<std::unique_ptr<core::Appliance>>
makeShardNodes(const ShardedConfig &config);

/**
 * Split one request into per-shard subrequests — maximal runs of
 * consecutive blocks mapping to the same shard — and invoke
 * fn(shard, subrequest) for each run in block order. Latency is
 * inherited; each subrequest keeps its own interpolation span, which
 * approximates the original block completion times. Zero-length
 * requests produce no subrequests. replay()'s Route::ByPage, and so
 * both sharded drivers, split with this routine alone.
 */
template <typename Fn>
void
forEachSubrequest(const trace::Request &req, size_t shards,
                  uint64_t seed, Fn &&fn)
{
    if (req.length_blocks == 0)
        return;
    uint32_t run_start = 0;
    size_t run_shard = shardOf(req.blockAt(0), shards, seed);
    for (uint32_t i = 1; i <= req.length_blocks; ++i) {
        const size_t shard =
            i < req.length_blocks
                ? shardOf(req.blockAt(i), shards, seed)
                : SIZE_MAX;
        if (shard == run_shard)
            continue;
        trace::Request sub = req;
        sub.offset_blocks = req.offset_blocks + run_start;
        sub.length_blocks = i - run_start;
        fn(run_shard, sub);
        run_start = i;
        run_shard = shard;
    }
}

/**
 * Replay a trace through a sharded deployment on the calling thread:
 * replay() with Route::ByPage and no workers. Requests are split into
 * per-shard subrequests at page granularity; day boundaries fire on
 * every node.
 */
ShardedResult runSharded(trace::TraceReader &reader,
                         const ShardedConfig &config);

/**
 * Parallel replay: runSharded with ParallelOptions::threads workers.
 * The caller decodes and routes into one bounded SPSC queue per shard
 * (util/spsc_queue.hpp); calendar-day barriers hold the shards in
 * epoch lockstep. Every node consumes exactly the subrequest/day
 * stream runSharded feeds it, so the per-node DailyReports are
 * bit-identical to runSharded's (the differential tests assert this
 * field-for-field).
 */
ShardedResult runShardedParallel(trace::TraceReader &reader,
                                 const ShardedConfig &config);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_SHARDED_HPP

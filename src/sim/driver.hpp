/**
 * @file
 * The replay engine and the single-appliance driver.
 *
 * replay() is the one composition of the sim/batch.hpp pieces. Its
 * wrappers build or borrow the nodes and pick the route: runTrace()
 * below, runSharded() and runShardedParallel() (sim/sharded.hpp) and
 * runPerServer() (sim/per_server.hpp). Every driver can audit the
 * nodes at every day boundary and at end of trace: runTrace per run
 * via DriverOptions, the others via the SIEVE_CHECK_INVARIANTS=1
 * environment variable. DCHECK-enabled builds (Debug, the sanitizer
 * presets) audit by default.
 */

#ifndef SIEVESTORE_SIM_DRIVER_HPP
#define SIEVESTORE_SIM_DRIVER_HPP

#include <memory>
#include <vector>

#include "core/appliance.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace sim {

/**
 * Default for DriverOptions::check_invariants: true when the
 * SIEVE_CHECK_INVARIANTS environment variable is a non-zero value, or
 * (absent the variable) when SIEVE_DCHECK is compiled in. Setting
 * SIEVE_CHECK_INVARIANTS=0 disables auditing even in debug builds.
 */
bool defaultCheckInvariants();

/** Replay options of runTrace. */
struct DriverOptions
{
    /** Audit Appliance::checkInvariants() at every day boundary and
     * at end of trace. */
    bool check_invariants = defaultCheckInvariants();
    /**
     * Requests per decode batch (see sim/batch.hpp). Batch size never
     * changes replay results — only the grouping of the request
     * stream; 1 reproduces the historical per-request path.
     */
    size_t batch = trace::kDefaultBatchRequests;
};

/** How replay() sends each request to its nodes. */
enum class Route : uint8_t
{
    Whole,    ///< every request, whole, to node 0 (runTrace)
    ByPage,   ///< forEachSubrequest's page split (the sharded drivers)
    ByServer, ///< whole requests to node req.server (runPerServer)
};

/** One replay: the nodes and the values the calling driver takes. */
struct ReplayPlan
{
    /** Appliances in node order; owned by the caller. */
    std::vector<core::Appliance *> nodes;
    Route route = Route::Whole;
    /** Page -> node hash seed (Route::ByPage). */
    uint64_t seed = 0;
    /** Requests per decode batch and per node hand-off. */
    size_t batch = trace::kDefaultBatchRequests;
    /** Worker threads, clamped to the node count; 0 replays on the
     * calling thread. */
    size_t workers = 0;
    /** Requests buffered per node queue (workers > 0). */
    size_t queue_depth = 0;
    /** Run checkNodes() at every day boundary and at end of trace. */
    bool audit = false;
};

/**
 * Replay a whole trace through plan.nodes: finishDay() on every node
 * at every crossed day boundary (empty days and idle nodes included),
 * finishTrace() at the end, no epoch after the final day. With
 * workers, a calendar-day barrier holds the nodes in lockstep; each
 * node's reports never depend on the worker count. Fatals on batch ==
 * 0, on workers with queue_depth == 0, on a non-time-ordered trace
 * and, for Route::ByServer, on a server with no node.
 */
void replay(trace::TraceReader &reader, const ReplayPlan &plan);

/**
 * Audit a deployment: at least one node, every node's own invariants,
 * and summed totals that stay consistent. Aborts on violation.
 */
void checkNodes(const std::vector<core::Appliance *> &nodes);

/** Borrow owned appliances as a ReplayPlan node list. */
std::vector<core::Appliance *>
borrowNodes(const std::vector<std::unique_ptr<core::Appliance>> &owned);

/**
 * Replay an entire trace through one appliance: replay() with one
 * node, whole requests, on the calling thread.
 */
void runTrace(trace::TraceReader &reader, core::Appliance &appliance,
              const DriverOptions &options);

/** Replay with default options (env-controlled invariant auditing). */
void runTrace(trace::TraceReader &reader, core::Appliance &appliance);

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_DRIVER_HPP

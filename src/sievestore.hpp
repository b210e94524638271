/**
 * @file
 * Umbrella header: the whole SieveStore public API.
 *
 * Fine-grained headers remain the preferred includes for library code;
 * this header exists for quick experiments and downstream prototypes.
 */

#ifndef SIEVESTORE_SIEVESTORE_HPP
#define SIEVESTORE_SIEVESTORE_HPP

// util: primitives
#include "util/flat_index.hpp"
#include "util/footprint.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"
#include "util/string_util.hpp"

// stats: reporting
#include "stats/histogram.hpp"
#include "stats/table.hpp"

// trace: workloads
#include "trace/binary_trace.hpp"
#include "trace/block.hpp"
#include "trace/ensemble.hpp"
#include "trace/merge.hpp"
#include "trace/msr_csv.hpp"
#include "trace/request.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_reader.hpp"
#include "trace/trace_stats.hpp"

// analysis: trace characterization + offline counting
#include "analysis/access_counter.hpp"
#include "analysis/access_log.hpp"
#include "analysis/popularity.hpp"
#include "analysis/skew.hpp"

// ssd: device models and cost accounting
#include "ssd/hdd_model.hpp"
#include "ssd/network.hpp"
#include "ssd/occupancy.hpp"
#include "ssd/ssd_model.hpp"

// storage: pluggable device backends behind the analytic model
#include "storage/analytic_backend.hpp"
#include "storage/backend.hpp"
#include "storage/file_backend.hpp"

// cache: the block-cache substrate
#include "cache/belady.hpp"
#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"

// core: SieveStore itself
#include "core/alloc_policy.hpp"
#include "core/appliance.hpp"
#include "core/auto_tune.hpp"
#include "core/discrete.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"
#include "core/rand_sieve.hpp"
#include "core/sieve_spec.hpp"
#include "core/sievestore_c.hpp"
#include "core/unsieved.hpp"
#include "core/windowed_counter.hpp"

// sim: experiment drivers
#include "sim/analytic.hpp"
#include "sim/batch.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/per_server.hpp"
#include "sim/sharded.hpp"

#endif // SIEVESTORE_SIEVESTORE_HPP

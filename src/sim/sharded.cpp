#include "sim/sharded.hpp"

#include <algorithm>

#include "sim/driver.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace sim {

core::DailyReport
ShardedResult::totals() const
{
    core::DailyReport sum;
    for (const auto &node : nodes)
        sum.add(node->totals());
    return sum;
}

uint32_t
ShardedResult::maxDrivesAtCoverage(double coverage) const
{
    uint32_t worst = 0;
    for (const auto &node : nodes) {
        const auto *occ = node->occupancy();
        if (occ)
            worst = std::max(worst, occ->drivesForCoverage(coverage));
    }
    return worst;
}

double
ShardedResult::loadImbalance() const
{
    if (nodes.empty())
        return 0.0;
    uint64_t max_accesses = 0, total = 0;
    for (const auto &node : nodes) {
        const uint64_t a = node->totals().accesses;
        max_accesses = std::max(max_accesses, a);
        total += a;
    }
    if (total == 0)
        return 1.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(nodes.size());
    return static_cast<double>(max_accesses) / mean;
}

void
ShardedResult::checkInvariants() const
{
    checkNodes(borrowNodes(nodes));
}

size_t
shardOf(trace::BlockId block, size_t shards, uint64_t seed)
{
    // Page-granular so a 4 KB unit never straddles nodes.
    const uint64_t key =
        (static_cast<uint64_t>(trace::volumeOf(block)) << 48) |
        trace::pageOf(block);
    return static_cast<size_t>(
        util::reduceRange(util::seededHash(key, seed), shards));
}

std::vector<std::unique_ptr<core::Appliance>>
makeShardNodes(const ShardedConfig &config)
{
    if (config.shards == 0)
        util::fatal("sharded deployment requires at least one node");
    if (config.policy.kind == PolicyKind::Ideal)
        util::fatal("sharded runs do not support the oracle policy");

    std::vector<std::unique_ptr<core::Appliance>> nodes;
    nodes.reserve(config.shards);
    for (size_t s = 0; s < config.shards; ++s) {
        PolicyConfig pc = config.policy;
        pc.seed += s;
        pc.sieve_c.seed += s; // decorrelate the nodes' IMCTs
        if (pc.adba_disk_log)
            pc.adba_log_dir += "/shard" + std::to_string(s);
        nodes.push_back(makeAppliance(pc, config.node));
    }
    return nodes;
}

namespace {

ShardedResult
replaySharded(trace::TraceReader &reader, const ShardedConfig &config,
              size_t workers)
{
    ShardedResult result;
    result.nodes = makeShardNodes(config);
    ReplayPlan plan;
    plan.nodes = borrowNodes(result.nodes);
    plan.route = Route::ByPage;
    plan.seed = config.seed;
    plan.batch = config.batch;
    plan.workers = workers;
    plan.queue_depth = config.parallel.queue_depth;
    plan.audit = defaultCheckInvariants();
    replay(reader, plan);
    return result;
}

} // namespace

ShardedResult
runSharded(trace::TraceReader &reader, const ShardedConfig &config)
{
    return replaySharded(reader, config, 0);
}

ShardedResult
runShardedParallel(trace::TraceReader &reader,
                   const ShardedConfig &config)
{
    const size_t threads = config.parallel.threads;
    return replaySharded(reader, config,
                         threads == 0 ? config.shards : threads);
}

} // namespace sim
} // namespace sievestore

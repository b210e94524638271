#include "sim/per_server.hpp"

#include <cmath>
#include <unordered_set>

#include "sim/driver.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace sim {

PerServerResult
runPerServer(trace::TraceReader &reader, const PerServerConfig &config)
{
    const size_t n = config.capacities_blocks.size();
    if (n == 0)
        util::fatal("per-server simulation requires at least one server");

    std::vector<std::unique_ptr<core::Appliance>> appliances;
    appliances.reserve(n);
    for (size_t s = 0; s < n; ++s) {
        core::ApplianceConfig ac = config.base;
        ac.cache_blocks = std::max<uint64_t>(1,
                                             config.capacities_blocks[s]);
        PolicyConfig pc = config.policy;
        pc.seed += s; // decorrelate randomized policies across servers
        if (pc.adba_disk_log)
            pc.adba_log_dir += "/server" + std::to_string(s);
        appliances.push_back(makeAppliance(pc, ac));
    }

    ReplayPlan plan;
    plan.nodes = borrowNodes(appliances);
    plan.route = Route::ByServer;
    plan.batch = config.batch;
    plan.audit = defaultCheckInvariants();
    replay(reader, plan);

    PerServerResult result;
    result.per_server.resize(n);
    for (size_t s = 0; s < n; ++s) {
        result.per_server[s] = appliances[s]->daily();
        result.total_capacity_blocks += config.capacities_blocks[s];
        if (result.per_server[s].size() > result.combined.size())
            result.combined.resize(result.per_server[s].size());
    }
    for (size_t s = 0; s < n; ++s) {
        const auto &days = result.per_server[s];
        for (size_t d = 0; d < days.size(); ++d)
            result.combined[d].add(days[d]);
    }
    return result;
}

std::vector<uint64_t>
elasticTopPercentCapacities(trace::TraceReader &reader, size_t servers,
                            double fraction)
{
    std::vector<uint64_t> best(servers, 0);
    std::vector<std::unordered_set<trace::BlockId>> uniq(servers);

    auto fold = [&](int) {
        for (size_t s = 0; s < servers; ++s) {
            const uint64_t top = static_cast<uint64_t>(std::ceil(
                fraction * static_cast<double>(uniq[s].size())));
            best[s] = std::max(best[s], top);
            uniq[s].clear();
        }
    };

    trace::Request req;
    bool any = false;
    int current_day = 0;
    while (reader.next(req)) {
        if (req.server >= servers)
            util::fatal("request from server %u but only %zu servers",
                        unsigned(req.server), servers);
        const int day = static_cast<int>(util::dayOf(req.time));
        if (!any) {
            current_day = day;
            any = true;
        }
        if (day != current_day) {
            fold(current_day);
            current_day = day;
        }
        for (uint32_t i = 0; i < req.length_blocks; ++i)
            uniq[req.server].insert(req.blockAt(i));
    }
    if (any)
        fold(current_day);
    return best;
}

} // namespace sim
} // namespace sievestore

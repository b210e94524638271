#include "sim/experiment.hpp"

#include "analysis/popularity.hpp"
#include "core/rand_sieve.hpp"
#include "core/unsieved.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace sim {

const char *
policyKindName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Ideal:
        return "Ideal";
      case PolicyKind::SieveStoreD:
        return "SieveStore-D";
      case PolicyKind::SieveStoreC:
        return "SieveStore-C";
      case PolicyKind::RandSieveBlkD:
        return "RandSieve-BlkD";
      case PolicyKind::RandSieveC:
        return "RandSieve-C";
      case PolicyKind::AOD:
        return "AOD";
      case PolicyKind::WMNA:
        return "WMNA";
      case PolicyKind::Adaptive:
        return "SieveStore-C/adaptive";
    }
    util::panic("unknown policy kind");
}

std::unique_ptr<core::Appliance>
makeAppliance(const PolicyConfig &policy,
              const core::ApplianceConfig &appliance)
{
    using core::Appliance;
    switch (policy.kind) {
      case PolicyKind::Ideal:
        util::fatal("PolicyKind::Ideal requires a profiling pass; "
                    "use makeIdealAppliance()");
      case PolicyKind::SieveStoreD: {
        auto selector =
            policy.adba_disk_log
                ? std::make_unique<core::AdbaSelector>(
                      policy.adba_threshold, policy.adba_log_dir)
                : std::make_unique<core::AdbaSelector>(
                      policy.adba_threshold);
        return std::make_unique<Appliance>(appliance,
                                           std::move(selector));
      }
      case PolicyKind::SieveStoreC: {
        // Continuous kinds go through the spec-driven constructor,
        // which runs them on the switch-dispatch FlatSieve engine (or,
        // when appliance.allocation is set, runs that factory's
        // virtual policy in FlatSieve's custom mode).
        core::ApplianceConfig cfg = appliance;
        cfg.sieve.kind = core::SieveKind::SieveStoreC;
        cfg.sieve.sieve_c = policy.sieve_c;
        return std::make_unique<Appliance>(std::move(cfg));
      }
      case PolicyKind::RandSieveBlkD: {
        auto selector = std::make_unique<core::RandomBlockSelector>(
            policy.rand_fraction, policy.seed);
        return std::make_unique<Appliance>(appliance,
                                           std::move(selector));
      }
      case PolicyKind::RandSieveC: {
        core::ApplianceConfig cfg = appliance;
        cfg.sieve.kind = core::SieveKind::RandSieveC;
        cfg.sieve.rand_probability = policy.rand_fraction;
        cfg.sieve.rand_seed = policy.seed;
        return std::make_unique<Appliance>(std::move(cfg));
      }
      case PolicyKind::AOD: {
        core::ApplianceConfig cfg = appliance;
        cfg.sieve.kind = core::SieveKind::Aod;
        return std::make_unique<Appliance>(std::move(cfg));
      }
      case PolicyKind::WMNA: {
        core::ApplianceConfig cfg = appliance;
        cfg.sieve.kind = core::SieveKind::Wmna;
        return std::make_unique<Appliance>(std::move(cfg));
      }
      case PolicyKind::Adaptive: {
        core::ApplianceConfig cfg = appliance;
        cfg.sieve.kind = core::SieveKind::Adaptive;
        cfg.sieve.adaptive = policy.adaptive;
        cfg.sieve.adaptive.base = policy.sieve_c;
        return std::make_unique<Appliance>(std::move(cfg));
      }
    }
    util::panic("unknown policy kind");
}

std::vector<std::vector<trace::BlockId>>
perDayTopBlocks(trace::TraceReader &reader, double fraction)
{
    reader.reset();
    std::vector<std::vector<trace::BlockId>> sets;
    analysis::BlockCounts counts;
    int current_day = -1;

    auto fold = [&]() {
        if (current_day < 0)
            return;
        if (sets.size() <= static_cast<size_t>(current_day))
            sets.resize(static_cast<size_t>(current_day) + 1);
        analysis::PopularityProfile profile(counts, 1);
        sets[static_cast<size_t>(current_day)] =
            profile.topBlocks(fraction);
        counts.clear();
    };

    trace::Request req;
    while (reader.next(req)) {
        const int day = static_cast<int>(util::dayOf(req.time));
        if (day != current_day) {
            fold();
            current_day = day;
        }
        for (uint32_t i = 0; i < req.length_blocks; ++i)
            ++counts[req.blockAt(i)];
    }
    fold();
    reader.reset();
    return sets;
}

std::unique_ptr<core::Appliance>
makeIdealAppliance(trace::TraceReader &reader, const PolicyConfig &policy,
                   const core::ApplianceConfig &appliance)
{
    auto sets = perDayTopBlocks(reader, policy.ideal_fraction);
    int first_day = -1;
    for (size_t d = 0; d < sets.size(); ++d) {
        if (!sets[d].empty()) {
            first_day = static_cast<int>(d);
            break;
        }
    }
    auto first_set = first_day >= 0
                         ? sets[static_cast<size_t>(first_day)]
                         : std::vector<trace::BlockId>{};
    auto app = std::make_unique<core::Appliance>(
        appliance, std::make_unique<core::OracleDaySelector>(
                       std::move(sets), first_day));
    if (first_day >= 0)
        app->preload(first_set, first_day);
    return app;
}

CostSummary
summarizeCost(const core::Appliance &appliance, double trace_days)
{
    CostSummary cost;
    const auto *occ = appliance.occupancy();
    if (!occ)
        return cost;
    cost.max_drives = occ->maxDrives();
    cost.drives_999 = occ->drivesForCoverage(0.999);
    cost.drives_99 = occ->drivesForCoverage(0.99);
    cost.drives_90 = occ->drivesForCoverage(0.90);
    cost.coverage_one_drive = occ->coverageWithDrives(1);
    cost.endurance_years =
        ssd::enduranceYears(occ->model(), occ->bytesWritten(), trace_days);
    return cost;
}

} // namespace sim
} // namespace sievestore

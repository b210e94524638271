#include "sim/driver.hpp"

#include <cstdlib>
#include <cstring>

#include "util/check.hpp"

namespace sievestore {
namespace sim {

bool
defaultCheckInvariants()
{
    // sieve-lint: allow(env-knob) audits on or off without a rebuild
    if (const char *env = std::getenv("SIEVE_CHECK_INVARIANTS"))
        return std::strcmp(env, "0") != 0;
    return SIEVE_DCHECKS_ENABLED;
}

void
runTrace(trace::TraceReader &reader, core::Appliance &appliance,
         const DriverOptions &options)
{
    ReplayPlan plan;
    plan.nodes = {&appliance};
    plan.batch = options.batch;
    plan.audit = options.check_invariants;
    replay(reader, plan);
}

void
runTrace(trace::TraceReader &reader, core::Appliance &appliance)
{
    runTrace(reader, appliance, DriverOptions{});
}

} // namespace sim
} // namespace sievestore

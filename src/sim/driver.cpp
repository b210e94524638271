#include "sim/driver.hpp"

#include <cstdlib>
#include <cstring>

#include "sim/batch.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

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
    // pumpBatches slices decode batches at day boundaries, so each
    // slice feeds processBatch directly — no re-accumulation needed
    // for a single appliance.
    pumpBatches(
        reader, options.batch,
        [&](std::span<const trace::Request> slice) {
            appliance.processBatch(slice);
        },
        [&](int day) {
            appliance.finishDay(day);
            if (options.check_invariants)
                appliance.checkInvariants();
        });
    appliance.finishTrace();
    if (options.check_invariants)
        appliance.checkInvariants();
}

void
runTrace(trace::TraceReader &reader, core::Appliance &appliance)
{
    runTrace(reader, appliance, DriverOptions{});
}

} // namespace sim
} // namespace sievestore

/**
 * @file
 * Unit tests for the trace-to-appliance driver.
 */

#include <gtest/gtest.h>

#include "core/appliance.hpp"
#include "sim/driver.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::trace;
using sievestore::util::FatalError;
using sievestore::util::makeTime;

Request
makeRequest(uint64_t time, uint64_t offset, uint32_t len,
            Op op = Op::Read)
{
    Request r;
    r.time = time;
    r.volume = 0;
    r.server = 0;
    r.op = op;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = 100;
    return r;
}

core::ApplianceConfig
config()
{
    core::ApplianceConfig cfg;
    cfg.cache_blocks = 1024;
    cfg.track_occupancy = false;
    cfg.sieve.kind = core::SieveKind::Aod;
    return cfg;
}

TEST(Driver, RunsDayBoundariesForDiscretePolicies)
{
    core::Appliance app(config(),
                        std::make_unique<core::AdbaSelector>(2));
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 3; ++i)
        reqs.push_back(makeRequest(makeTime(0, 1 + i), 0, 8));
    reqs.push_back(makeRequest(makeTime(1, 1), 0, 8));
    VectorTrace trace(std::move(reqs));
    sim::runTrace(trace, app);
    ASSERT_GE(app.daily().size(), 2u);
    // The epoch boundary between day 0 and 1 installed block 0.
    EXPECT_EQ(app.daily()[1].hits, 8u);
}

TEST(Driver, HandlesMultiDayGaps)
{
    core::Appliance app(config(),
                        std::make_unique<core::AdbaSelector>(1));
    std::vector<Request> reqs = {
        makeRequest(makeTime(0, 1), 0, 8),
        makeRequest(makeTime(3, 1), 0, 8), // days 1-2 silent
    };
    VectorTrace trace(std::move(reqs));
    sim::runTrace(trace, app);
    // Block 0 was installed at end of day 0 but a full-epoch silence
    // (days 1 and 2 with no qualifying accesses) evicts it.
    ASSERT_GE(app.daily().size(), 4u);
    EXPECT_EQ(app.daily()[3].hits, 0u);
}

TEST(Driver, TraceNotStartingAtDayZero)
{
    core::Appliance app(config());
    std::vector<Request> reqs = {makeRequest(makeTime(5, 1), 0, 8)};
    VectorTrace trace(std::move(reqs));
    sim::runTrace(trace, app);
    ASSERT_EQ(app.daily().size(), 6u);
    EXPECT_EQ(app.daily()[5].accesses, 8u);
}

TEST(Driver, RejectsTimeTravel)
{
    core::Appliance app(config());
    // Hand-roll an unsorted reader (VectorTrace would reject it).
    class Unsorted : public TraceReader
    {
      public:
        bool
        next(Request &out) override
        {
            if (i >= 2)
                return false;
            out = makeRequest(i == 0 ? makeTime(2) : makeTime(1), 0, 8);
            ++i;
            return true;
        }
        void reset() override { i = 0; }

      private:
        int i = 0;
    };
    Unsorted trace;
    EXPECT_THROW(sim::runTrace(trace, app), FatalError);
}

TEST(Driver, EmptyTrace)
{
    core::Appliance app(config());
    VectorTrace trace(std::vector<Request>{});
    sim::runTrace(trace, app);
    EXPECT_TRUE(app.daily().empty());
}

} // namespace

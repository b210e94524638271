/**
 * @file
 * Storage differential tests: the same golden trace replayed through
 * the AnalyticBackend and the FileBackend must produce bit-identical
 * model-side DailyReports — storage changes observation, never policy
 * — while the measured-vs-predicted latency divergence is reported
 * per day and can be gated by a tolerance.
 */

#include <gtest/gtest.h>

#include <vector>

#include "support/storage_diff.hpp"
#include "trace/request.hpp"
#include "trace/trace_reader.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using sim::runStorageDifferential;
using sim::StorageDiffConfig;
using sim::StorageDiffResult;

trace::Request
makeRequest(uint64_t time, uint64_t offset, uint32_t len, trace::Op op)
{
    trace::Request r;
    r.time = time;
    r.volume = 1;
    r.server = 0;
    r.op = op;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = 1000;
    return r;
}

/**
 * Two-day golden workload with enough re-reference for every policy
 * under test to allocate and then hit: each day hammers a small hot
 * set (8 pages) and touches a cold stream once.
 */
trace::VectorTrace
goldenTrace()
{
    std::vector<trace::Request> reqs;
    for (uint64_t day = 0; day < 2; ++day) {
        const uint64_t base = day * util::kUsPerDay;
        for (uint64_t round = 0; round < 12; ++round) {
            const uint64_t t = base + 1000 + round * 2000000;
            reqs.push_back(makeRequest(t, 0, 64, trace::Op::Read));
            reqs.push_back(makeRequest(
                t + 500000, 1000 + round * 64, 16, trace::Op::Read));
            if (round % 3 == 0)
                reqs.push_back(makeRequest(t + 900000, 0, 16,
                                           trace::Op::Write));
        }
    }
    return trace::VectorTrace(std::move(reqs));
}

StorageDiffConfig
baseConfig()
{
    StorageDiffConfig config;
    config.appliance.cache_blocks = 4096;
    config.appliance.track_occupancy = false;
    config.file.workers = 0;
    config.driver.check_invariants = true;
    return config;
}

void
expectModelIdentical(const StorageDiffResult &result)
{
    EXPECT_TRUE(result.model_identical);
    EXPECT_TRUE(result.within_tolerance);
    EXPECT_TRUE(result.ok());
    ASSERT_EQ(result.analytic_days.size(), result.file_days.size());
    ASSERT_EQ(result.days.size(), result.analytic_days.size());

    // The differential is only meaningful if the workload actually
    // produced device traffic.
    uint64_t predicted = 0, measured = 0, ops = 0;
    for (const sim::StorageDiffDay &row : result.days) {
        predicted += row.predicted_ns;
        measured += row.measured_ns;
    }
    for (const core::DailyReport &d : result.file_days)
        ops += d.storage_read_ios + d.storage_write_ios;
    EXPECT_GT(ops, 0u);
    EXPECT_GT(predicted, 0u);
    EXPECT_GT(measured, 0u);
}

TEST(StorageDifferential, ContinuousPolicyModelIdentical)
{
    trace::VectorTrace reader = goldenTrace();
    StorageDiffConfig config = baseConfig();
    config.policy.kind = sim::PolicyKind::SieveStoreC;
    expectModelIdentical(runStorageDifferential(reader, config));
}

TEST(StorageDifferential, UnsievedAodModelIdentical)
{
    trace::VectorTrace reader = goldenTrace();
    StorageDiffConfig config = baseConfig();
    config.policy.kind = sim::PolicyKind::AOD;
    expectModelIdentical(runStorageDifferential(reader, config));
}

TEST(StorageDifferential, DiscretePolicyModelIdentical)
{
    // SieveStore-D exercises the epoch batchReplace staging path
    // (page-coalesced batch writes + eviction trims).
    trace::VectorTrace reader = goldenTrace();
    StorageDiffConfig config = baseConfig();
    config.policy.kind = sim::PolicyKind::SieveStoreD;
    config.policy.adba_threshold = 2;
    const StorageDiffResult result =
        runStorageDifferential(reader, config);
    expectModelIdentical(result);
    uint64_t batch_moved = 0;
    for (const core::DailyReport &d : result.file_days)
        batch_moved += d.batch_moved_blocks;
    EXPECT_GT(batch_moved, 0u);
}

TEST(StorageDifferential, ToleranceGate)
{
    trace::VectorTrace reader = goldenTrace();
    StorageDiffConfig config = baseConfig();
    config.policy.kind = sim::PolicyKind::AOD;

    // Report-only (tolerance 0) never gates.
    config.ns_tolerance = 0;
    const StorageDiffResult report_only =
        runStorageDifferential(reader, config);
    EXPECT_TRUE(report_only.within_tolerance);

    // An unbounded tolerance always passes.
    config.ns_tolerance = UINT64_MAX;
    EXPECT_TRUE(
        runStorageDifferential(reader, config).within_tolerance);

    // A 1 ns tolerance trips as soon as any day diverges at all —
    // which a real device does against the X25-E datasheet numbers.
    uint64_t divergence = 0;
    for (const sim::StorageDiffDay &row : report_only.days)
        divergence += row.measured_ns > row.predicted_ns
                          ? row.measured_ns - row.predicted_ns
                          : row.predicted_ns - row.measured_ns;
    if (divergence > 1) {
        config.ns_tolerance = 1;
        EXPECT_FALSE(
            runStorageDifferential(reader, config).within_tolerance);
    }
}

TEST(StorageDifferential, RatioRowsAreWellFormed)
{
    trace::VectorTrace reader = goldenTrace();
    StorageDiffConfig config = baseConfig();
    config.policy.kind = sim::PolicyKind::SieveStoreC;
    const StorageDiffResult result =
        runStorageDifferential(reader, config);
    for (const sim::StorageDiffDay &row : result.days) {
        EXPECT_GE(row.day, 0);
        if (row.predicted_ns > 0)
            EXPECT_DOUBLE_EQ(
                row.ratio,
                static_cast<double>(row.measured_ns) /
                    static_cast<double>(row.predicted_ns));
        else
            EXPECT_EQ(row.ratio, 0.0);
    }
}

} // namespace

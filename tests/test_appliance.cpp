/**
 * @file
 * Unit tests for the SieveStore appliance: hit/miss accounting,
 * completion-time allocation, 4 KB I/O coalescing, and discrete epochs.
 */

#include <gtest/gtest.h>

#include "core/appliance.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore::core;
using namespace sievestore::trace;
using sievestore::util::FatalError;
using sievestore::util::makeTime;

Request
makeRequest(uint64_t time, uint64_t offset, uint32_t len, Op op,
            uint32_t latency = 1000)
{
    Request r;
    r.time = time;
    r.volume = 1;
    r.server = 0;
    r.op = op;
    r.offset_blocks = offset;
    r.length_blocks = len;
    r.latency_us = latency;
    return r;
}

ApplianceConfig
smallConfig(uint64_t blocks = 1024, SieveKind sieve = SieveKind::Aod)
{
    ApplianceConfig cfg;
    cfg.cache_blocks = blocks;
    cfg.track_occupancy = true;
    cfg.sieve.kind = sieve;
    return cfg;
}

TEST(Appliance, AodMissThenHit)
{
    Appliance app(smallConfig());
    app.processRequest(makeRequest(1000, 0, 8, Op::Read));
    // Same blocks well after the first request's completion.
    app.processRequest(makeRequest(10000000, 0, 8, Op::Read));
    app.finishTrace();
    const DailyReport t = app.totals();
    EXPECT_EQ(t.accesses, 16u);
    EXPECT_EQ(t.hits, 8u);
    EXPECT_EQ(t.read_hits, 8u);
    EXPECT_EQ(t.allocation_write_blocks, 8u);
    EXPECT_DOUBLE_EQ(t.hitRatio(), 0.5);
}

TEST(Appliance, AllocationWaitsForCompletion)
{
    // Second access arrives before the first request completes: the
    // data is still being fetched, so it must count as a miss.
    Appliance app(smallConfig());
    app.processRequest(makeRequest(1000, 0, 8, Op::Read, 50000));
    app.processRequest(makeRequest(2000, 0, 8, Op::Read, 50000));
    // And a third access after completion hits.
    app.processRequest(makeRequest(200000, 0, 8, Op::Read));
    app.finishTrace();
    const DailyReport t = app.totals();
    EXPECT_EQ(t.hits, 8u);
    EXPECT_EQ(t.accesses, 24u);
    // The in-flight duplicate was not allocated twice.
    EXPECT_EQ(t.allocation_write_blocks, 8u);
}

TEST(Appliance, InterpolatedPartialCompletion)
{
    // A 100-block request over 100 ms completes block i at ~(i+1) ms.
    // A touch of its first page at +50 ms hits; its last page misses.
    Appliance app(smallConfig(4096));
    app.processRequest(makeRequest(0, 0, 100, Op::Read, 100000));
    app.processRequest(makeRequest(50000, 0, 8, Op::Read, 1000));
    app.processRequest(makeRequest(50001, 92, 8, Op::Read, 1000));
    app.finishTrace();
    const DailyReport t = app.totals();
    EXPECT_EQ(t.hits, 8u); // only the early blocks are resident
}

TEST(Appliance, WmnaBypassesWriteMisses)
{
    Appliance app(smallConfig(1024, SieveKind::Wmna));
    app.processRequest(makeRequest(1000, 0, 8, Op::Write));
    app.processRequest(makeRequest(10000000, 0, 8, Op::Write));
    app.finishTrace();
    const DailyReport t = app.totals();
    EXPECT_EQ(t.hits, 0u); // never allocated
    EXPECT_EQ(t.allocation_write_blocks, 0u);
    // A read miss does allocate, and a later write to it hits.
    app.processRequest(makeRequest(20000000, 100, 8, Op::Read));
    app.processRequest(makeRequest(30000000, 100, 8, Op::Write));
    app.finishTrace();
    const DailyReport t2 = app.totals();
    EXPECT_EQ(t2.write_hits, 8u);
    EXPECT_EQ(t2.allocation_write_blocks, 8u);
}

TEST(Appliance, SsdIoCoalescingPerPage)
{
    Appliance app(smallConfig());
    // Allocate 4 aligned pages (32 blocks) and re-read them: the hit
    // service must be 4 read I/Os, not 32.
    app.processRequest(makeRequest(1000, 0, 32, Op::Read));
    app.processRequest(makeRequest(10000000, 0, 32, Op::Read));
    app.finishTrace();
    const DailyReport t = app.totals();
    EXPECT_EQ(t.hits, 32u);
    EXPECT_EQ(t.ssd_read_ios, 4u);
    // The allocation of 32 contiguous blocks is 4 write I/Os.
    EXPECT_EQ(t.ssd_alloc_ios, 4u);
}

TEST(Appliance, UnalignedHitChargedConservatively)
{
    Appliance app(smallConfig());
    // Blocks 4..11 span two 4 KB pages: conservative 2-I/O charge.
    app.processRequest(makeRequest(1000, 4, 8, Op::Read));
    app.processRequest(makeRequest(10000000, 4, 8, Op::Read));
    app.finishTrace();
    EXPECT_EQ(app.totals().ssd_read_ios, 2u);
}

TEST(Appliance, WriteHitsAreSsdWrites)
{
    Appliance app(smallConfig());
    app.processRequest(makeRequest(1000, 0, 8, Op::Read));
    app.processRequest(makeRequest(10000000, 0, 8, Op::Write));
    app.finishTrace();
    const DailyReport t = app.totals();
    EXPECT_EQ(t.write_hits, 8u);
    EXPECT_EQ(t.ssd_write_ios, 1u);
    EXPECT_EQ(t.ssd_read_ios, 0u);
}

TEST(Appliance, DailyAttributionByAccessTime)
{
    Appliance app(smallConfig());
    app.processRequest(makeRequest(makeTime(0, 12), 0, 8, Op::Read));
    app.finishDay(0);
    app.processRequest(makeRequest(makeTime(1, 12), 0, 8, Op::Read));
    app.finishTrace();
    ASSERT_GE(app.daily().size(), 2u);
    EXPECT_EQ(app.daily()[0].accesses, 8u);
    EXPECT_EQ(app.daily()[0].hits, 0u);
    EXPECT_EQ(app.daily()[1].accesses, 8u);
    EXPECT_EQ(app.daily()[1].hits, 8u);
}

TEST(Appliance, AllocationAttributedToCompletionDay)
{
    // A request straddling midnight: linear interpolation completes
    // blocks 0-2 before midnight (day 0) and blocks 3-7 at or after it
    // (day 1); each allocation-write lands on its completion day.
    Appliance app(smallConfig());
    const uint64_t t = makeTime(1) - 500; // 500 us before midnight
    app.processRequest(makeRequest(t, 0, 8, Op::Read, 1000));
    app.finishDay(0);
    app.finishTrace();
    ASSERT_GE(app.daily().size(), 2u);
    EXPECT_EQ(app.daily()[0].allocation_write_blocks, 3u);
    EXPECT_EQ(app.daily()[1].allocation_write_blocks, 5u);
}

TEST(Appliance, DiscreteEpochInstallsForNextDay)
{
    ApplianceConfig cfg = smallConfig();
    Appliance app(cfg, std::make_unique<AdbaSelector>(3));
    // Day 0: block 0 accessed 4 times (qualifies), block 100 once.
    for (uint64_t i = 0; i < 4; ++i)
        app.processRequest(
            makeRequest(makeTime(0, 1 + i), 0, 8, Op::Read));
    app.processRequest(makeRequest(makeTime(0, 6), 100, 8, Op::Read));
    EXPECT_EQ(app.totals().hits, 0u); // no online allocation
    app.finishDay(0);
    // Day 1: the qualified blocks hit; the singleton does not.
    app.processRequest(makeRequest(makeTime(1, 1), 0, 8, Op::Read));
    app.processRequest(makeRequest(makeTime(1, 2), 100, 8, Op::Read));
    app.finishTrace();
    ASSERT_GE(app.daily().size(), 2u);
    EXPECT_EQ(app.daily()[1].hits, 8u);
    EXPECT_EQ(app.daily()[1].batch_moved_blocks, 8u);
    EXPECT_EQ(app.daily()[0].batch_moved_blocks, 0u);
}

TEST(Appliance, EpochCancellationAvoidsRemoves)
{
    Appliance app(smallConfig(), std::make_unique<AdbaSelector>(2));
    // Block 0 is hot on both days: the second epoch must not re-move it.
    for (uint64_t d = 0; d < 2; ++d)
        for (uint64_t i = 0; i < 3; ++i)
            app.processRequest(
                makeRequest(makeTime(d, 1 + i), 0, 8, Op::Read));
    app.finishDay(0);
    const uint64_t after_first =
        app.totals().batch_moved_blocks;
    EXPECT_EQ(after_first, 8u);
    app.finishDay(1);
    app.finishTrace();
    EXPECT_EQ(app.totals().batch_moved_blocks, 8u); // retained, not moved
}

TEST(Appliance, PreloadInstallsBlocksAndCounts)
{
    Appliance app(smallConfig(), std::make_unique<AdbaSelector>(10));
    app.preload({makeBlockId(1, 0), makeBlockId(1, 1)}, 0);
    app.processRequest(makeRequest(1000, 0, 2, Op::Read));
    app.finishTrace();
    EXPECT_EQ(app.totals().hits, 2u);
    EXPECT_EQ(app.daily()[0].batch_moved_blocks, 2u);
}

TEST(Appliance, OccupancyRecordsHitAndAllocIos)
{
    Appliance app(smallConfig());
    app.processRequest(makeRequest(1000, 0, 8, Op::Read));
    app.processRequest(makeRequest(10000000, 0, 8, Op::Read));
    app.finishTrace();
    const auto *occ = app.occupancy();
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(occ->totalReadIos(), 1u);  // the hit
    EXPECT_EQ(occ->totalWriteIos(), 1u); // the allocation
}

TEST(Appliance, OccupancyDisabled)
{
    ApplianceConfig cfg = smallConfig();
    cfg.track_occupancy = false;
    Appliance app(cfg);
    EXPECT_EQ(app.occupancy(), nullptr);
}

TEST(Appliance, PolicyNamePassthrough)
{
    Appliance cont(smallConfig(1024, SieveKind::Wmna));
    EXPECT_STREQ(cont.policyName(), "WMNA");
    Appliance disc(smallConfig(), std::make_unique<AdbaSelector>(10));
    EXPECT_STREQ(disc.policyName(), "SieveStore-D");
}

TEST(Appliance, NullReplacementFactoryIsFatal)
{
    // A replacement factory that returns null is a configuration
    // error, not a quiet fall back to the flat LRU.
    ApplianceConfig cfg = smallConfig();
    cfg.replacement = [] {
        return std::unique_ptr<sievestore::cache::ReplacementPolicy>();
    };
    EXPECT_THROW({ Appliance app(cfg); }, FatalError);
}

TEST(Appliance, NullAllocationFactoryIsFatal)
{
    ApplianceConfig cfg = smallConfig();
    cfg.allocation = [] { return std::unique_ptr<AllocationPolicy>(); };
    EXPECT_THROW({ Appliance app(cfg); }, FatalError);
}

TEST(Appliance, LruEvictionUnderPressure)
{
    // Cache of 16 blocks, AOD: newer allocations evict older ones.
    Appliance app(smallConfig(16));
    app.processRequest(makeRequest(1000, 0, 8, Op::Read));
    app.processRequest(makeRequest(10000000, 100, 8, Op::Read));
    app.processRequest(makeRequest(20000000, 200, 8, Op::Read));
    // Blocks 0..7 have been evicted by the third allocation.
    app.processRequest(makeRequest(30000000, 0, 8, Op::Read));
    app.finishTrace();
    EXPECT_EQ(app.totals().hits, 0u);
}

TEST(DailyReport, AddSumsMeasuredStorageColumns)
{
    // The six measured storage_* columns accumulate exactly like the
    // model columns — distinct primes so a swapped or dropped field
    // cannot cancel out.
    DailyReport a;
    a.storage_read_ios = 2;
    a.storage_write_ios = 3;
    a.storage_read_errors = 5;
    a.storage_write_errors = 7;
    a.storage_read_ns = 11;
    a.storage_write_ns = 13;
    DailyReport b;
    b.storage_read_ios = 17;
    b.storage_write_ios = 19;
    b.storage_read_errors = 23;
    b.storage_write_errors = 29;
    b.storage_read_ns = 31;
    b.storage_write_ns = 37;
    a.add(b);
    EXPECT_EQ(a.storage_read_ios, 19u);
    EXPECT_EQ(a.storage_write_ios, 22u);
    EXPECT_EQ(a.storage_read_errors, 28u);
    EXPECT_EQ(a.storage_write_errors, 36u);
    EXPECT_EQ(a.storage_read_ns, 42u);
    EXPECT_EQ(a.storage_write_ns, 50u);
}

TEST(Appliance, StorageColumnsSumAcrossDayBarriers)
{
    // A trace spanning two days: totals() (a DailyReport::add fold)
    // must equal the field-wise sum of the per-day reports — every
    // measured I/O attributed to exactly one day, none lost or
    // double-counted at the barrier.
    Appliance app(smallConfig());
    app.processRequest(makeRequest(makeTime(0, 1), 0, 8, Op::Read));
    app.processRequest(makeRequest(makeTime(0, 2), 64, 8, Op::Write));
    app.processRequest(makeRequest(makeTime(1, 1), 0, 8, Op::Read));
    app.processRequest(makeRequest(makeTime(1, 2), 128, 8, Op::Read));
    app.finishTrace();
    ASSERT_GE(app.daily().size(), 2u);
    DailyReport sum;
    size_t active_days = 0;
    for (const auto &day : app.daily()) {
        if (day.storage_read_ios + day.storage_write_ios > 0)
            ++active_days;
        sum.add(day);
    }
    EXPECT_GE(active_days, 2u);
    const DailyReport t = app.totals();
    EXPECT_EQ(sum.storage_read_ios, t.storage_read_ios);
    EXPECT_EQ(sum.storage_write_ios, t.storage_write_ios);
    EXPECT_EQ(sum.storage_read_errors, t.storage_read_errors);
    EXPECT_EQ(sum.storage_write_errors, t.storage_write_errors);
    EXPECT_EQ(sum.storage_read_ns, t.storage_read_ns);
    EXPECT_EQ(sum.storage_write_ns, t.storage_write_ns);
    // The default AnalyticBackend really drained the charged I/Os.
    EXPECT_EQ(t.storage_read_ios, t.ssd_read_ios);
    EXPECT_GT(t.storage_write_ios, 0u);
}

} // namespace

/**
 * @file
 * Storage backend tests: the analytic echo, the O_DIRECT file store
 * (pool and synchronous engines), and the fault-injection decorator —
 * including the headline degradation property: with a faulty device
 * the appliance falls back to the no-cache path for the failed I/Os
 * (errors are counted, nothing crashes) while every model-side
 * decision stays bit-identical to a healthy run.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/appliance.hpp"
#include "storage/analytic_backend.hpp"
#include "storage/backend.hpp"
#include "storage/file_backend.hpp"
#include "support/fault_backend.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::storage;
using sievestore::trace::BlockId;
using sievestore::trace::makeBlockId;

std::vector<StorageOp>
makeAlignedOps(size_t n, uint64_t first_page = 0,
               util::TimeUs time = 1000)
{
    std::vector<StorageOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i)
        ops.push_back(StorageOp{
            time, makeBlockId(1, (first_page + i) *
                                     trace::kBlocksPerPage)});
    return ops;
}

// ------------------------------------------------------------------
// AnalyticBackend
// ------------------------------------------------------------------

TEST(AnalyticBackend, EchoesModelServiceTimes)
{
    const ssd::SsdModel ssd = ssd::SsdModel::intelX25E();
    AnalyticBackend backend(ssd);
    const auto ops = makeAlignedOps(8);
    uint32_t lat[8];

    backend.readBlocks(ops, lat);
    for (uint32_t l : lat)
        EXPECT_EQ(l, backend.readServiceNs());
    backend.writeBlocks(ops, lat);
    for (uint32_t l : lat)
        EXPECT_EQ(l, backend.writeServiceNs());

    // X25-E datasheet: 35000 read IOPS, 3300 write IOPS.
    EXPECT_EQ(backend.readServiceNs(),
              static_cast<uint32_t>(1e9 / 35000.0 + 0.5));
    EXPECT_EQ(backend.writeServiceNs(),
              static_cast<uint32_t>(1e9 / 3300.0 + 0.5));

    const BackendStats &st = backend.stats();
    EXPECT_EQ(st.read_ops, 8u);
    EXPECT_EQ(st.write_ops, 8u);
    EXPECT_EQ(st.read_errors, 0u);
    EXPECT_EQ(st.read_ns, 8u * backend.readServiceNs());
    EXPECT_EQ(st.write_ns, 8u * backend.writeServiceNs());
    backend.checkInvariants();
}

TEST(AnalyticBackend, LatencyHistogramMatchesOpCounts)
{
    AnalyticBackend backend(ssd::SsdModel::intelX25E());
    const auto ops = makeAlignedOps(33);
    std::vector<uint32_t> lat(ops.size());
    backend.readBlocks(ops, lat);
    backend.trimBlocks(ops);
    uint64_t in_hist = 0;
    for (uint64_t c : backend.stats().read_latency_log2)
        in_hist += c;
    EXPECT_EQ(in_hist, 33u);
    EXPECT_EQ(backend.stats().trim_ops, 33u);
    backend.checkInvariants();
}

// ------------------------------------------------------------------
// makeBackend factory
// ------------------------------------------------------------------

TEST(MakeBackend, KindSelection)
{
    const ssd::SsdModel ssd = ssd::SsdModel::intelX25E();
    BackendConfig config;

    config.kind = BackendKind::None;
    EXPECT_EQ(makeBackend(config, ssd, 1024), nullptr);

    config.kind = BackendKind::Analytic;
    auto analytic = makeBackend(config, ssd, 1024);
    ASSERT_NE(analytic, nullptr);
    EXPECT_STREQ(analytic->name(), "analytic");

    config.kind = BackendKind::File;
    config.file.workers = 0;
    auto file = makeBackend(config, ssd, 1024);
    ASSERT_NE(file, nullptr);
    EXPECT_STREQ(file->name(), "file");
    // capacity_bytes == 0 derives the store from the cache size:
    // 1024 blocks = 512 KB = 128 4 KB slots.
    EXPECT_EQ(static_cast<FileBackend &>(*file).slots(), 128u);
}

TEST(MakeBackend, DefaultsToAnalyticInEveryBuild)
{
    // No build flag or environment variable picks the default: a run
    // that wants another backend says so in ApplianceConfig::backend.
    EXPECT_EQ(BackendConfig{}.kind, BackendKind::Analytic);
    EXPECT_EQ(core::ApplianceConfig{}.backend.kind,
              BackendKind::Analytic);
}

TEST(MakeBackend, FactoryOverridesKind)
{
    const ssd::SsdModel ssd = ssd::SsdModel::intelX25E();
    BackendConfig config;
    config.kind = BackendKind::None;
    config.factory = [&ssd]() {
        return std::make_unique<AnalyticBackend>(ssd);
    };
    auto backend = makeBackend(config, ssd, 1024);
    ASSERT_NE(backend, nullptr);
    EXPECT_STREQ(backend->name(), "analytic");
}

// ------------------------------------------------------------------
// FileBackend
// ------------------------------------------------------------------

void
exerciseFileBackend(unsigned workers)
{
    FileBackendConfig config;
    config.capacity_bytes = 64 * trace::kPageBytes;
    config.workers = workers;
    FileBackend backend(config);
    EXPECT_EQ(backend.slots(), 64u);

    const auto ops = makeAlignedOps(200);
    std::vector<uint32_t> lat(ops.size());

    backend.writeBlocks(ops, lat);
    for (uint32_t l : lat)
        EXPECT_NE(l, kFailedOp);
    backend.readBlocks(ops, lat);
    for (uint32_t l : lat)
        EXPECT_NE(l, kFailedOp);
    backend.flush();

    const BackendStats &st = backend.stats();
    EXPECT_EQ(st.read_ops, 200u);
    EXPECT_EQ(st.write_ops, 200u);
    EXPECT_EQ(st.read_errors, 0u);
    EXPECT_EQ(st.write_errors, 0u);
    EXPECT_GT(st.read_ns, 0u);
    EXPECT_GT(st.write_ns, 0u);
    backend.checkInvariants();
}

TEST(FileBackend, SynchronousFallbackEngine)
{
    // workers = 0: every op runs inline on the submitting thread.
    exerciseFileBackend(0);
}

TEST(FileBackend, WorkerPoolEngine)
{
    exerciseFileBackend(3);
}

TEST(FileBackend, CollidingSlotsStillServe)
{
    // More distinct pages than slots: direct-mapped collisions must
    // change bytes only, never success/failure of the op.
    FileBackendConfig config;
    config.capacity_bytes = 4 * trace::kPageBytes;
    config.workers = 0;
    FileBackend backend(config);
    const auto ops = makeAlignedOps(64);
    std::vector<uint32_t> lat(ops.size());
    backend.writeBlocks(ops, lat);
    backend.readBlocks(ops, lat);
    EXPECT_EQ(backend.stats().read_errors, 0u);
    EXPECT_EQ(backend.stats().write_errors, 0u);
    backend.checkInvariants();
}

// ------------------------------------------------------------------
// FaultInjectingBackend
// ------------------------------------------------------------------

std::unique_ptr<Backend>
analyticInner()
{
    return std::make_unique<AnalyticBackend>(
        ssd::SsdModel::intelX25E());
}

TEST(FaultBackend, ShortReadEveryN)
{
    FaultPlan plan;
    plan.read_short_every = 3; // ops 3, 6, 9, ... fail
    FaultInjectingBackend backend(analyticInner(), plan);
    const auto ops = makeAlignedOps(9);
    std::vector<uint32_t> lat(ops.size());
    backend.readBlocks(ops, lat);
    EXPECT_EQ(backend.stats().read_errors, 3u);
    EXPECT_EQ(backend.stats().read_ops, 6u);
    EXPECT_EQ(lat[2], kFailedOp);
    EXPECT_EQ(lat[5], kFailedOp);
    EXPECT_NE(lat[0], kFailedOp);
    EXPECT_EQ(backend.injected(), 3u);
    backend.checkInvariants();
}

TEST(FaultBackend, WriteEnospcEveryN)
{
    FaultPlan plan;
    plan.write_enospc_every = 2;
    FaultInjectingBackend backend(analyticInner(), plan);
    const auto ops = makeAlignedOps(10);
    std::vector<uint32_t> lat(ops.size());
    backend.writeBlocks(ops, lat);
    EXPECT_EQ(backend.stats().write_errors, 5u);
    EXPECT_EQ(backend.stats().write_ops, 5u);
    backend.checkInvariants();
}

TEST(FaultBackend, RejectsUnalignedOps)
{
    FaultInjectingBackend backend(analyticInner(), FaultPlan{});
    // One aligned op, one whose page id is mid-unit (an O_DIRECT
    // device would refuse it).
    const StorageOp ops[2] = {
        {1000, makeBlockId(1, 0)},
        {1000, makeBlockId(1, 3)},
    };
    uint32_t lat[2];
    backend.readBlocks(ops, lat);
    EXPECT_NE(lat[0], kFailedOp);
    EXPECT_EQ(lat[1], kFailedOp);
    EXPECT_EQ(backend.stats().read_errors, 1u);
    backend.checkInvariants();
}

TEST(FaultBackend, MidBatchDeviceDropout)
{
    FaultPlan plan;
    plan.fail_batch_from = 4; // device drops after the 4th op
    FaultInjectingBackend backend(analyticInner(), plan);
    const auto ops = makeAlignedOps(10);
    std::vector<uint32_t> lat(ops.size());
    backend.writeBlocks(ops, lat);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_NE(lat[i], kFailedOp) << i;
    for (size_t i = 4; i < 10; ++i)
        EXPECT_EQ(lat[i], kFailedOp) << i;
    EXPECT_EQ(backend.stats().write_ops, 4u);
    EXPECT_EQ(backend.stats().write_errors, 6u);
    backend.checkInvariants();
}

TEST(FaultBackend, WrapsFileBackend)
{
    FaultPlan plan;
    plan.read_short_every = 5;
    auto inner = [] {
        FileBackendConfig config;
        config.capacity_bytes = 16 * trace::kPageBytes;
        config.workers = 0;
        return std::make_unique<FileBackend>(config);
    };
    FaultInjectingBackend backend(inner(), plan);
    const auto ops = makeAlignedOps(10);
    std::vector<uint32_t> lat(ops.size());
    backend.writeBlocks(ops, lat);
    backend.readBlocks(ops, lat);
    EXPECT_EQ(backend.stats().read_errors, 2u);
    EXPECT_EQ(backend.stats().read_ops, 8u);
    backend.checkInvariants();
}

// ------------------------------------------------------------------
// Appliance degradation under a faulty device
// ------------------------------------------------------------------

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

void
replayWorkload(core::Appliance &app)
{
    // Allocate three pages, then re-read them (hits -> device reads)
    // and overwrite one (hits -> device writes).
    app.processRequest(makeRequest(1000, 0, 24, trace::Op::Read));
    app.processRequest(makeRequest(10000000, 0, 24, trace::Op::Read));
    app.processRequest(makeRequest(20000000, 0, 8, trace::Op::Write));
    app.processRequest(makeRequest(30000000, 0, 24, trace::Op::Read));
    app.finishTrace();
    app.checkInvariants();
}

core::ApplianceConfig
faultTestConfig()
{
    core::ApplianceConfig cfg;
    cfg.cache_blocks = 1024;
    cfg.track_occupancy = false;
    cfg.sieve.kind = core::SieveKind::Aod;
    return cfg;
}

TEST(ApplianceDegradation, FaultyReadsFallThroughWithoutCrash)
{
    // Healthy reference run.
    core::ApplianceConfig clean_cfg = faultTestConfig();
    clean_cfg.backend.kind = BackendKind::Analytic;
    core::Appliance clean(clean_cfg);
    replayWorkload(clean);

    // Same workload with every 2nd read and every 3rd write failing.
    core::ApplianceConfig faulty_cfg = faultTestConfig();
    faulty_cfg.backend.factory = [] {
        FaultPlan plan;
        plan.read_short_every = 2;
        plan.write_enospc_every = 3;
        return std::make_unique<FaultInjectingBackend>(
            analyticInner(), plan);
    };
    core::Appliance faulty(faulty_cfg);
    replayWorkload(faulty);

    const core::DailyReport c = clean.totals();
    const core::DailyReport f = faulty.totals();

    // Device failures must not leak into any model-side decision:
    // the paper's accounting is bit-identical to the healthy run.
    EXPECT_EQ(f.accesses, c.accesses);
    EXPECT_EQ(f.hits, c.hits);
    EXPECT_EQ(f.read_hits, c.read_hits);
    EXPECT_EQ(f.write_hits, c.write_hits);
    EXPECT_EQ(f.allocation_write_blocks, c.allocation_write_blocks);
    EXPECT_EQ(f.ssd_read_ios, c.ssd_read_ios);
    EXPECT_EQ(f.ssd_write_ios, c.ssd_write_ios);
    EXPECT_EQ(f.ssd_alloc_ios, c.ssd_alloc_ios);

    // The failed I/Os degraded to the no-cache path: counted as
    // errors, with successes + errors covering every model charge.
    EXPECT_GT(f.storage_read_errors, 0u);
    EXPECT_GT(f.storage_write_errors, 0u);
    EXPECT_EQ(f.storage_read_ios + f.storage_read_errors,
              c.storage_read_ios + c.storage_read_errors);
    EXPECT_EQ(f.storage_write_ios + f.storage_write_errors,
              c.storage_write_ios + c.storage_write_errors);

    // The appliance only ever emits 4 KB-unit-aligned ops, so none
    // of the injected failures came from the alignment check.
    const auto *backend = dynamic_cast<const FaultInjectingBackend *>(
        faulty.storageBackend());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->stats().read_errors +
                  backend->stats().write_errors,
              backend->injected());
}

TEST(ApplianceStorage, AnalyticCountsMatchModelCharges)
{
    core::ApplianceConfig cfg = faultTestConfig();
    cfg.backend.kind = BackendKind::Analytic;
    core::Appliance app(cfg);
    replayWorkload(app);

    const core::DailyReport t = app.totals();
    EXPECT_GT(t.ssd_read_ios, 0u);
    EXPECT_EQ(t.storage_read_ios, t.ssd_read_ios);
    EXPECT_EQ(t.storage_write_ios, t.ssd_write_ios + t.ssd_alloc_ios);
    EXPECT_EQ(t.storage_read_errors, 0u);
    EXPECT_EQ(t.storage_write_errors, 0u);

    // Per-op latency is the model's service time, so the totals are
    // exact multiples.
    const auto *backend = dynamic_cast<const AnalyticBackend *>(
        app.storageBackend());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(t.storage_read_ns,
              t.storage_read_ios * backend->readServiceNs());
    EXPECT_EQ(t.storage_write_ns,
              t.storage_write_ios * backend->writeServiceNs());
}

TEST(ApplianceStorage, NoneBackendSkipsEmission)
{
    core::ApplianceConfig cfg = faultTestConfig();
    cfg.backend.kind = BackendKind::None;
    core::Appliance app(cfg);
    replayWorkload(app);
    EXPECT_EQ(app.storageBackend(), nullptr);
    const core::DailyReport t = app.totals();
    EXPECT_GT(t.ssd_read_ios, 0u);
    EXPECT_EQ(t.storage_read_ios, 0u);
    EXPECT_EQ(t.storage_write_ios, 0u);
}

TEST(ApplianceStorage, FileBackendKeepsModelFieldsIdentical)
{
    core::ApplianceConfig analytic_cfg = faultTestConfig();
    analytic_cfg.backend.kind = BackendKind::Analytic;
    core::Appliance a(analytic_cfg);
    replayWorkload(a);

    core::ApplianceConfig file_cfg = faultTestConfig();
    file_cfg.backend.kind = BackendKind::File;
    file_cfg.backend.file.workers = 0;
    core::Appliance f(file_cfg);
    replayWorkload(f);

    const core::DailyReport ta = a.totals();
    const core::DailyReport tf = f.totals();
    EXPECT_EQ(tf.hits, ta.hits);
    EXPECT_EQ(tf.ssd_read_ios, ta.ssd_read_ios);
    EXPECT_EQ(tf.ssd_write_ios, ta.ssd_write_ios);
    EXPECT_EQ(tf.ssd_alloc_ios, ta.ssd_alloc_ios);
    EXPECT_EQ(tf.storage_read_ios + tf.storage_read_errors,
              ta.storage_read_ios + ta.storage_read_errors);
    // Measured latencies differ from the model's — that divergence
    // is the feature, not a bug.
    EXPECT_GT(tf.storage_read_ns + tf.storage_write_ns, 0u);
}

} // namespace

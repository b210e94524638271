/**
 * @file
 * Differential proof that the flat block-index cache engine is
 * behavior-identical to the node-based Reference* policies it
 * replaced.
 *
 * The refactor's claim is not "roughly the same policy" but
 * *bit-identical decisions*: the same victim on every insert, the
 * same BatchReplaceResult on every epoch swap, and therefore the same
 * DailyReport on every node of every experiment. These tests drive
 * both engines op-for-op over randomized streams for every built-in
 * eviction kind, then replay full appliances (continuous and
 * discrete) and compare every field of every day's report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"
#include "core/appliance.hpp"
#include "core/discrete.hpp"
#include "core/sieve_spec.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::cache;
using core::DailyReport;
using sievestore::trace::BlockId;
using sievestore::util::Rng;

const EvictionKind kAllKinds[] = {EvictionKind::Lru, EvictionKind::Fifo,
                                  EvictionKind::Clock, EvictionKind::Lfu,
                                  EvictionKind::Random};

// ---- cache-level op stream ----------------------------------------

/**
 * Drive both engines with an identical random stream of access /
 * insert / erase / batched touch and require identical observable
 * behavior after every single operation: hit results, eviction
 * victims, residency, and size. The batched touch runs the custom
 * engine's probe-gather hit path (the one the appliance uses) against
 * the flat engine's.
 */
void
differentialOpStream(EvictionKind kind, uint64_t capacity,
                     uint64_t key_space, uint64_t seed, int ops)
{
    const EvictionSpec spec{kind, 11};
    BlockCache flat(capacity, spec);
    BlockCache reference(capacity, makeReferencePolicy(spec, capacity));
    Rng rng(seed);
    const std::string label = evictionKindName(kind);

    for (int op = 0; op < ops; ++op) {
        const BlockId b = rng.nextBelow(key_space);
        switch (rng.nextBelow(8)) {
          case 0: { // erase
            const bool f = flat.erase(b);
            const bool r = reference.erase(b);
            ASSERT_EQ(f, r) << label << " erase(" << b << ") op " << op;
            break;
          }
          case 1: { // touchBatch over a short run of keys
            BlockId run[8];
            const size_t n = 1 + rng.nextBelow(8);
            for (size_t i = 0; i < n; ++i)
                run[i] = (b + i) % key_space;
            bool f_hit[8];
            bool r_hit[8];
            flat.touchBatch(std::span<const BlockId>(run, n),
                            std::span<bool>(f_hit, n));
            reference.touchBatch(std::span<const BlockId>(run, n),
                                 std::span<bool>(r_hit, n));
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(f_hit[i], r_hit[i])
                    << label << " touchBatch key " << run[i] << " op "
                    << op;
            break;
          }
          default: { // access, insert on miss (the appliance hot path)
            const bool f_hit = flat.access(b);
            const bool r_hit = reference.access(b);
            ASSERT_EQ(f_hit, r_hit)
                << label << " access(" << b << ") op " << op;
            if (!f_hit) {
                const auto f_victim = flat.insert(b);
                const auto r_victim = reference.insert(b);
                ASSERT_EQ(f_victim, r_victim)
                    << label << " victim for insert(" << b << ") op "
                    << op;
            }
            break;
          }
        }
        ASSERT_EQ(flat.size(), reference.size()) << label;
    }
    flat.checkInvariants();
    reference.checkInvariants();

    auto f_contents = flat.contents();
    auto r_contents = reference.contents();
    std::sort(f_contents.begin(), f_contents.end());
    std::sort(r_contents.begin(), r_contents.end());
    EXPECT_EQ(f_contents, r_contents) << label;
}

TEST(FlatCacheDifferential, OpStreamMatchesReferenceEveryKind)
{
    for (const EvictionKind kind : kAllKinds) {
        // Tight key space: constant eviction pressure.
        differentialOpStream(kind, 64, 256, 42, 60000);
        // Wide key space: mostly-miss streaming.
        differentialOpStream(kind, 64, 1 << 16, 43, 60000);
        // Capacity 1 and 2: the degenerate rings/lists.
        differentialOpStream(kind, 1, 16, 44, 5000);
        differentialOpStream(kind, 2, 16, 45, 5000);
        // Capacity 4096: a 12-level LFU heap with long sift paths.
        differentialOpStream(kind, 4096, 1 << 14, 47, 30000);
    }
}

// ---- batchReplace -------------------------------------------------

/**
 * Interleave continuous ops with epoch-style batch replacements and
 * require identical BatchReplaceResults and identical residency —
 * this is exactly the discrete appliance's usage pattern.
 */
void
differentialBatch(EvictionKind kind, uint64_t seed)
{
    const EvictionSpec spec{kind, 5};
    const uint64_t capacity = 128;
    BlockCache flat(capacity, spec);
    BlockCache reference(capacity, makeReferencePolicy(spec, capacity));
    Rng rng(seed);
    const std::string label = evictionKindName(kind);

    for (int epoch = 0; epoch < 30; ++epoch) {
        // A continuous phase...
        for (int op = 0; op < 500; ++op) {
            const BlockId b = rng.nextBelow(600);
            const bool f_hit = flat.access(b);
            ASSERT_EQ(f_hit, reference.access(b)) << label;
            if (!f_hit) {
                ASSERT_EQ(flat.insert(b), reference.insert(b))
                    << label;
            }
        }
        // ...then an epoch batch, sometimes oversized, sometimes
        // overlapping the resident set, sometimes with duplicates.
        std::vector<BlockId> incoming;
        const uint64_t n = rng.nextBelow(200);
        for (uint64_t i = 0; i < n; ++i)
            incoming.push_back(rng.nextBelow(600));
        const BatchReplaceResult f = flat.batchReplace(incoming);
        const BatchReplaceResult r = reference.batchReplace(incoming);
        EXPECT_EQ(f.retained, r.retained) << label << " epoch " << epoch;
        EXPECT_EQ(f.evicted, r.evicted) << label << " epoch " << epoch;
        EXPECT_EQ(f.allocated, r.allocated)
            << label << " epoch " << epoch;
        ASSERT_EQ(flat.size(), reference.size()) << label;
        flat.checkInvariants();
        reference.checkInvariants();

        auto f_contents = flat.contents();
        auto r_contents = reference.contents();
        std::sort(f_contents.begin(), f_contents.end());
        std::sort(r_contents.begin(), r_contents.end());
        ASSERT_EQ(f_contents, r_contents) << label;
    }
}

TEST(FlatCacheDifferential, BatchReplaceMatchesReferenceEveryKind)
{
    for (const EvictionKind kind : kAllKinds)
        differentialBatch(kind, 7 + static_cast<uint64_t>(kind));
}

// ---- appliance-level ----------------------------------------------

/** Field-for-field equality of one day's report. */
void
expectReportEq(const DailyReport &flat, const DailyReport &reference,
               const std::string &where)
{
    EXPECT_EQ(flat.accesses, reference.accesses) << where;
    EXPECT_EQ(flat.read_accesses, reference.read_accesses) << where;
    EXPECT_EQ(flat.hits, reference.hits) << where;
    EXPECT_EQ(flat.read_hits, reference.read_hits) << where;
    EXPECT_EQ(flat.write_hits, reference.write_hits) << where;
    EXPECT_EQ(flat.allocation_write_blocks,
              reference.allocation_write_blocks)
        << where;
    EXPECT_EQ(flat.batch_moved_blocks, reference.batch_moved_blocks)
        << where;
    EXPECT_EQ(flat.ssd_read_ios, reference.ssd_read_ios) << where;
    EXPECT_EQ(flat.ssd_write_ios, reference.ssd_write_ios) << where;
    EXPECT_EQ(flat.ssd_alloc_ios, reference.ssd_alloc_ios) << where;
}

/** A multi-day random trace with hot runs and a cold tail. */
std::vector<trace::Request>
randomTrace(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<trace::Request> reqs;
    uint64_t t = 0;
    for (size_t i = 0; i < n; ++i) {
        trace::Request r;
        t += rng.nextBelow(120 * 1000000); // ~3.5 simulated days total
        r.time = t;
        r.volume = static_cast<trace::VolumeId>(rng.nextBelow(4));
        r.server = static_cast<trace::ServerId>(rng.nextBelow(3));
        r.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        r.offset_blocks = rng.nextBool(0.5)
                              ? rng.nextBelow(64) * 8
                              : rng.nextBelow(1 << 18);
        r.length_blocks = 1 + static_cast<uint32_t>(rng.nextBelow(32));
        r.latency_us = static_cast<uint32_t>(rng.nextBelow(5000000));
        reqs.push_back(r);
    }
    return reqs;
}

/**
 * The acceptance matrix: every built-in eviction kind × {AOD, WMNA,
 * SieveStore-C, SieveStore-D}, flat engine vs reference engine, with
 * per-day reports compared field for field.
 */
TEST(FlatCacheDifferential, ApplianceReportsMatchAcrossPolicyMatrix)
{
    const sim::PolicyKind policies[] = {
        sim::PolicyKind::AOD, sim::PolicyKind::WMNA,
        sim::PolicyKind::SieveStoreC, sim::PolicyKind::SieveStoreD};
    const auto reqs = randomTrace(99, 4000);

    for (const EvictionKind kind : kAllKinds) {
        for (const sim::PolicyKind pk : policies) {
            const EvictionSpec spec{kind, 21};
            sim::PolicyConfig policy;
            policy.kind = pk;
            policy.adba_threshold = 3;
            policy.sieve_c.imct_slots = 1 << 12;

            core::ApplianceConfig flat_cfg;
            flat_cfg.cache_blocks = 512;
            flat_cfg.track_occupancy = true;
            flat_cfg.eviction = spec;
            core::ApplianceConfig ref_cfg = flat_cfg;
            ref_cfg.replacement = [spec] {
                return makeReferencePolicy(spec, 512);
            };

            auto flat_app = sim::makeAppliance(policy, flat_cfg);
            auto ref_app = sim::makeAppliance(policy, ref_cfg);

            trace::VectorTrace flat_trace(reqs);
            sim::runTrace(flat_trace, *flat_app);
            trace::VectorTrace ref_trace(reqs);
            sim::runTrace(ref_trace, *ref_app);

            const std::string label =
                std::string(evictionKindName(kind)) + " x " +
                sim::policyKindName(pk);
            const auto &fd = flat_app->daily();
            const auto &rd = ref_app->daily();
            ASSERT_EQ(fd.size(), rd.size()) << label;
            ASSERT_GE(fd.size(), 2u)
                << label << ": trace must span multiple days";
            for (size_t d = 0; d < fd.size(); ++d)
                expectReportEq(fd[d], rd[d],
                               label + " day " + std::to_string(d));
            expectReportEq(flat_app->totals(), ref_app->totals(),
                           label + " totals");
            flat_app->checkInvariants();
            ref_app->checkInvariants();
        }
    }
}

// ---- sieve-engine differential ------------------------------------

/**
 * Same claim, one layer up: the switch-dispatch FlatSieve engine must
 * make bit-identical allocation decisions to the virtual
 * AllocationPolicy hierarchy it devirtualized. The reference engine
 * is requested through ApplianceConfig::allocation — a factory
 * returning makeReferenceSievePolicy(spec), run in FlatSieve's custom
 * mode — so the test exercises both dispatch paths in a single binary.
 */
TEST(FlatSieveDifferential, ApplianceReportsMatchReferenceSieve)
{
    const auto reqs = randomTrace(123, 4000);
    const core::SieveKind kinds[] = {
        core::SieveKind::Aod, core::SieveKind::Wmna,
        core::SieveKind::SieveStoreC, core::SieveKind::RandSieveC};

    for (const core::SieveKind k : kinds) {
        core::SievePolicySpec spec;
        spec.kind = k;
        spec.rand_probability = 0.05;
        spec.rand_seed = 17;
        spec.sieve_c.imct_slots = 1 << 12;

        core::ApplianceConfig flat_cfg;
        flat_cfg.cache_blocks = 512;
        flat_cfg.track_occupancy = false;
        flat_cfg.sieve = spec;
        core::ApplianceConfig ref_cfg = flat_cfg;
        ref_cfg.allocation = [spec] {
            return core::makeReferenceSievePolicy(spec);
        };

        core::Appliance flat_app(flat_cfg);
        core::Appliance ref_app(ref_cfg);
        const std::string label = core::sieveKindName(k);
        EXPECT_STREQ(flat_app.policyName(), ref_app.policyName())
            << label;
        EXPECT_EQ(flat_app.metastateBytes(), ref_app.metastateBytes())
            << label;

        trace::VectorTrace flat_trace(reqs);
        sim::runTrace(flat_trace, flat_app);
        trace::VectorTrace ref_trace(reqs);
        sim::runTrace(ref_trace, ref_app);

        const auto &fd = flat_app.daily();
        const auto &rd = ref_app.daily();
        ASSERT_EQ(fd.size(), rd.size()) << label;
        ASSERT_GE(fd.size(), 2u)
            << label << ": trace must span multiple days";
        for (size_t d = 0; d < fd.size(); ++d)
            expectReportEq(fd[d], rd[d],
                           label + " day " + std::to_string(d));
        flat_app.checkInvariants();
        ref_app.checkInvariants();
    }
}

/**
 * SieveStore-C ablations flow through the spec into the embedded
 * engine: decisions and the ablation-suffixed policy name must match
 * the reference construction.
 */
TEST(FlatSieveDifferential, SieveCAblationsMatchReferenceSieve)
{
    const auto reqs = randomTrace(321, 2500);
    core::SieveStoreCConfig ablations[3];
    for (auto &c : ablations)
        c.imct_slots = 1 << 12;
    ablations[0].imct_slots = 1 << 8; // tiny IMCT: heavy aliasing
    ablations[1].mct_only = true;
    ablations[2].imct_only = true;

    for (size_t a = 0; a < 3; ++a) {
        core::ApplianceConfig flat_cfg;
        flat_cfg.cache_blocks = 256;
        flat_cfg.sieve.kind = core::SieveKind::SieveStoreC;
        flat_cfg.sieve.sieve_c = ablations[a];
        core::ApplianceConfig ref_cfg = flat_cfg;
        const core::SievePolicySpec spec = flat_cfg.sieve;
        ref_cfg.allocation = [spec] {
            return core::makeReferenceSievePolicy(spec);
        };

        core::Appliance flat_app(flat_cfg);
        core::Appliance ref_app(ref_cfg);
        const std::string label =
            "ablation " + std::to_string(a) + " (" +
            flat_app.policyName() + ")";
        EXPECT_STREQ(flat_app.policyName(), ref_app.policyName())
            << label;

        trace::VectorTrace flat_trace(reqs);
        sim::runTrace(flat_trace, flat_app);
        trace::VectorTrace ref_trace(reqs);
        sim::runTrace(ref_trace, ref_app);

        const auto &fd = flat_app.daily();
        const auto &rd = ref_app.daily();
        ASSERT_EQ(fd.size(), rd.size()) << label;
        for (size_t d = 0; d < fd.size(); ++d)
            expectReportEq(fd[d], rd[d],
                           label + " day " + std::to_string(d));
    }
}

// ---- batched-kernel differential ----------------------------------

/** Same per-minute drive load on both appliances (occupancy rows). */
void
expectOccupancyEq(const core::Appliance &flat,
                  const core::Appliance &reference,
                  const std::string &where)
{
    ASSERT_EQ(flat.occupancy() == nullptr,
              reference.occupancy() == nullptr) << where;
    if (flat.occupancy() == nullptr)
        return;
    EXPECT_EQ(flat.occupancy()->totalReadIos(),
              reference.occupancy()->totalReadIos()) << where;
    EXPECT_EQ(flat.occupancy()->totalWriteIos(),
              reference.occupancy()->totalWriteIos()) << where;
    EXPECT_EQ(flat.occupancy()->drivesSeries(),
              reference.occupancy()->drivesSeries()) << where;
}

/**
 * The appliance's one request body (probe-gather -> sieve-prefetch ->
 * decide) on the flat engines against the Reference* oracles replayed
 * one request per batch: per-day DailyReports must be bit-identical
 * for every eviction kind, every continuous sieve and SieveStore-D,
 * with occupancy tracking off (the no-alloc configuration) and on,
 * every probe-loop dispatch (AVX2 on/off) and every decode batch
 * size.
 */
TEST(BatchKernelDifferential, ProcessBatchMatchesReferenceAcrossMatrix)
{
    const auto reqs = randomTrace(555, 3000);
    // Every continuous sieve, then SieveStore-D (nullopt).
    const std::optional<core::SieveKind> sieves[] = {
        core::SieveKind::Aod, core::SieveKind::Wmna,
        core::SieveKind::SieveStoreC, core::SieveKind::RandSieveC,
        std::nullopt};
    const bool prior_simd = util::batchSimdEnabled();

    for (size_t k = 0; k < kEvictionKindCount; ++k) {
        const EvictionSpec espec{static_cast<EvictionKind>(k), 21};
        for (const std::optional<core::SieveKind> sk : sieves) {
            for (const bool occupancy : {false, true}) {
                core::ApplianceConfig cfg;
                cfg.cache_blocks = 512;
                cfg.track_occupancy = occupancy;
                cfg.eviction = espec;
                cfg.sieve.kind = sk.value_or(core::SieveKind::Aod);
                cfg.sieve.rand_probability = 0.05;
                cfg.sieve.rand_seed = 17;
                cfg.sieve.sieve_c.imct_slots = 1 << 12;
                const auto make = [&sk](core::ApplianceConfig c) {
                    if (sk)
                        return std::make_unique<core::Appliance>(
                            std::move(c));
                    return std::make_unique<core::Appliance>(
                        std::move(c),
                        std::make_unique<core::AdbaSelector>(3));
                };

                // Baseline: the Reference* oracles, one request per
                // batch.
                core::ApplianceConfig ref_cfg = cfg;
                ref_cfg.replacement = [espec] {
                    return makeReferencePolicy(espec, 512);
                };
                if (sk) {
                    const core::SievePolicySpec spec = cfg.sieve;
                    ref_cfg.allocation = [spec] {
                        return core::makeReferenceSievePolicy(spec);
                    };
                }
                const auto ref_app = make(ref_cfg);
                trace::VectorTrace ref_trace(reqs);
                sim::DriverOptions one;
                one.batch = 1;
                sim::runTrace(ref_trace, *ref_app, one);
                const std::string row =
                    std::string(evictionKindName(espec.kind)) + " x " +
                    ref_app->policyName() +
                    (occupancy ? " occupancy" : "");

                for (const bool simd : {false, true}) {
                    if (simd && !util::batchSimdSupported())
                        continue;
                    for (const size_t batch : {size_t{1}, size_t{8},
                                               size_t{64}}) {
                        util::setBatchSimd(simd);
                        const auto flat_app = make(cfg);
                        trace::VectorTrace flat_trace(reqs);
                        sim::DriverOptions options;
                        options.batch = batch;
                        sim::runTrace(flat_trace, *flat_app, options);

                        const std::string label =
                            row + (simd ? " avx2" : " scalar-probe") +
                            " batch " + std::to_string(batch);
                        const auto &fd = flat_app->daily();
                        const auto &rd = ref_app->daily();
                        ASSERT_EQ(fd.size(), rd.size()) << label;
                        ASSERT_GE(fd.size(), 2u)
                            << label << ": trace must span multiple days";
                        for (size_t d = 0; d < fd.size(); ++d)
                            expectReportEq(fd[d], rd[d],
                                           label + " day " +
                                               std::to_string(d));
                        expectReportEq(flat_app->totals(),
                                       ref_app->totals(),
                                       label + " totals");
                        expectOccupancyEq(*flat_app, *ref_app, label);
                        flat_app->checkInvariants();
                    }
                }
                ref_app->checkInvariants();
            }
        }
    }
    util::setBatchSimd(prior_simd);
}

} // namespace

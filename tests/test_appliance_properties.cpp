/**
 * @file
 * Property sweep: accounting invariants of the appliance under random
 * request streams, every continuous policy, and every replacement
 * policy — the "no configuration can corrupt the books" test.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/replacement.hpp"
#include "core/appliance.hpp"
#include "core/auto_tune.hpp"
#include "core/rand_sieve.hpp"
#include "core/unsieved.hpp"
#include "sim/driver.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::core;
using namespace sievestore::trace;
using sievestore::util::Rng;

std::vector<Request>
randomTrace(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<Request> reqs;
    uint64_t t = 0;
    for (size_t i = 0; i < n; ++i) {
        Request r;
        t += rng.nextBelow(60 * 1000000);
        r.time = t;
        r.volume = static_cast<VolumeId>(rng.nextBelow(4));
        r.server = static_cast<ServerId>(rng.nextBelow(3));
        r.op = rng.nextBool(0.7) ? Op::Read : Op::Write;
        // Mix of tight hot keys and a wide cold space; variable sizes.
        r.offset_blocks = rng.nextBool(0.5)
                              ? rng.nextBelow(64) * 8
                              : rng.nextBelow(1 << 20);
        r.length_blocks =
            1 + static_cast<uint32_t>(rng.nextBelow(64));
        r.latency_us =
            static_cast<uint32_t>(rng.nextBelow(5000000));
        reqs.push_back(r);
    }
    return reqs;
}

struct Combo
{
    int policy;      // 0 AOD, 1 WMNA, 2 RandC, 3 SieveC, 4 AutoTune
    int replacement; // 0 LRU, 1 FIFO, 2 Random, 3 LFU, 4 CLOCK
    uint64_t seed;
};

std::unique_ptr<AllocationPolicy>
makePolicy(int kind)
{
    switch (kind) {
      case 0:
        return std::make_unique<AodPolicy>();
      case 1:
        return std::make_unique<WmnaPolicy>();
      case 2:
        return std::make_unique<RandSieveCPolicy>(0.05, 3);
      case 3: {
        SieveStoreCConfig cfg;
        cfg.imct_slots = 1 << 12;
        cfg.t1 = 2;
        cfg.t2 = 1;
        return std::make_unique<SieveStoreCPolicy>(cfg);
      }
      default: {
        SieveStoreCConfig cfg;
        cfg.imct_slots = 1 << 12;
        cfg.t1 = 2;
        cfg.t2 = 1;
        AutoTuneConfig tune;
        tune.cache_blocks = 512;
        return std::make_unique<AutoTunedSievePolicy>(cfg, tune);
      }
    }
}

cache::EvictionSpec
makeEviction(int kind)
{
    switch (kind) {
      case 0:
        return {cache::EvictionKind::Lru, 7};
      case 1:
        return {cache::EvictionKind::Fifo, 7};
      case 2:
        return {cache::EvictionKind::Random, 7};
      case 3:
        return {cache::EvictionKind::Lfu, 7};
      default:
        return {cache::EvictionKind::Clock, 7};
    }
}

class ApplianceProperties : public ::testing::TestWithParam<Combo>
{
};

TEST_P(ApplianceProperties, AccountingInvariantsHold)
{
    const Combo combo = GetParam();
    ApplianceConfig cfg;
    cfg.cache_blocks = 512;
    cfg.track_occupancy = true;
    cfg.eviction = makeEviction(combo.replacement);
    cfg.allocation = [kind = combo.policy] { return makePolicy(kind); };
    Appliance app(cfg);

    auto reqs = randomTrace(combo.seed, 3000);
    uint64_t expected_accesses = 0, expected_reads = 0;
    for (const auto &r : reqs) {
        expected_accesses += r.length_blocks;
        if (r.op == Op::Read)
            expected_reads += r.length_blocks;
    }
    VectorTrace trace(std::move(reqs));
    sim::runTrace(trace, app);

    const DailyReport t = app.totals();
    // Conservation.
    EXPECT_EQ(t.accesses, expected_accesses);
    EXPECT_EQ(t.read_accesses, expected_reads);
    EXPECT_EQ(t.hits, t.read_hits + t.write_hits);
    EXPECT_LE(t.hits, t.accesses);
    EXPECT_LE(t.read_hits, t.read_accesses);
    EXPECT_LE(t.write_hits, t.accesses - t.read_accesses);
    // 4 KB I/O counts never exceed their block counts.
    EXPECT_LE(t.ssd_read_ios, t.read_hits);
    EXPECT_LE(t.ssd_write_ios, t.write_hits);
    EXPECT_LE(t.ssd_alloc_ios, t.allocation_write_blocks);
    // Capacity is never violated.
    EXPECT_LE(app.blockCache().size(), cfg.cache_blocks);
    // Occupancy saw exactly the I/Os the reports claim.
    const auto *occ = app.occupancy();
    ASSERT_NE(occ, nullptr);
    EXPECT_EQ(occ->totalReadIos(), t.ssd_read_ios);
    EXPECT_EQ(occ->totalWriteIos(),
              t.ssd_write_ios + t.ssd_alloc_ios);
}

std::vector<Combo>
allCombos()
{
    std::vector<Combo> combos;
    for (int p = 0; p < 5; ++p)
        for (int r = 0; r < 5; ++r)
            combos.push_back(
                Combo{p, r, static_cast<uint64_t>(p * 100 + r)});
    return combos;
}

INSTANTIATE_TEST_SUITE_P(AllPolicyReplacementPairs, ApplianceProperties,
                         ::testing::ValuesIn(allCombos()));

} // namespace

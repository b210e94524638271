/**
 * @file
 * Unit tests for the self-tuning sieves (Section 7 "tuning"): the
 * churn-budget controller (AutoTunedSievePolicy) and the online
 * adaptive sieve (AdaptiveSievePolicy, shadow-candidate epochs).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/auto_tune.hpp"
#include "util/flat_index.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore::core;
using sievestore::trace::BlockAccess;
using sievestore::trace::BlockId;
using sievestore::trace::Op;
using sievestore::util::FatalError;
using sievestore::util::makeTime;
using sievestore::util::Rng;

BlockAccess
missAt(BlockId block, uint64_t t)
{
    BlockAccess a;
    a.block = block;
    a.time = t;
    a.completion = t + 1000;
    a.op = Op::Read;
    return a;
}

SieveStoreCConfig
looseSieve()
{
    SieveStoreCConfig cfg;
    cfg.imct_slots = 1 << 14;
    cfg.t1 = 1;
    cfg.t2 = 1;
    return cfg;
}

TEST(AutoTune, TightensWhenChurnExceedsBudget)
{
    AutoTuneConfig tune;
    tune.cache_blocks = 100;   // budget: 100 allocations/day
    tune.churn_budget = 1.0;
    AutoTunedSievePolicy policy(looseSieve(), tune);
    ASSERT_EQ(policy.currentT2(), 1u);

    // Day 0: 2000 distinct blocks each miss twice -> ~2000 allocations
    // with t1 = t2 = 1: way over budget.
    for (BlockId b = 0; b < 2000; ++b) {
        policy.onMiss(missAt(b, makeTime(0, 1)));
        policy.onMiss(missAt(b, makeTime(0, 2)));
    }
    EXPECT_GT(policy.allocationsToday(), 100u);
    // First access of day 1 closes day 0 and raises t2.
    policy.onMiss(missAt(999999, makeTime(1, 1)));
    EXPECT_EQ(policy.currentT2(), 2u);
    ASSERT_EQ(policy.t2History().size(), 1u);
    EXPECT_EQ(policy.t2History()[0], 2u);
}

TEST(AutoTune, LoosensWhenFarUnderBudget)
{
    AutoTuneConfig tune;
    tune.cache_blocks = 1000000; // effectively unlimited budget
    SieveStoreCConfig sieve = looseSieve();
    sieve.t2 = 8;
    AutoTunedSievePolicy policy(sieve, tune);
    // A quiet day 0 (no allocations), then day 1 arrives.
    policy.onMiss(missAt(1, makeTime(0, 1)));
    policy.onMiss(missAt(2, makeTime(1, 1)));
    EXPECT_EQ(policy.currentT2(), 7u);
}

TEST(AutoTune, HoldsInsideHysteresisBand)
{
    AutoTuneConfig tune;
    tune.cache_blocks = 100;
    tune.churn_budget = 1.0;
    tune.slack = 0.5; // accept 50-150 allocations/day
    SieveStoreCConfig sieve = looseSieve();
    sieve.t2 = 4;
    AutoTunedSievePolicy policy(sieve, tune);
    // Day 0: exactly 100 allocations (each block misses t1+t2 times).
    for (BlockId b = 0; b < 100; ++b)
        for (uint64_t m = 0; m < 5; ++m)
            policy.onMiss(missAt(b, makeTime(0, 1, m)));
    policy.onMiss(missAt(424242, makeTime(1, 1)));
    EXPECT_EQ(policy.currentT2(), 4u); // unchanged
}

TEST(AutoTune, RespectsBounds)
{
    AutoTuneConfig tune;
    tune.cache_blocks = 1;
    tune.min_t2 = 2;
    tune.max_t2 = 3;
    SieveStoreCConfig sieve = looseSieve();
    sieve.t2 = 10; // clamped down to max at construction
    AutoTunedSievePolicy policy(sieve, tune);
    EXPECT_EQ(policy.currentT2(), 3u);
    // Massive churn across several days cannot push above max_t2.
    for (uint64_t d = 0; d < 3; ++d)
        for (BlockId b = 0; b < 500; ++b)
            for (uint64_t m = 0; m < 6; ++m)
                policy.onMiss(missAt(b, makeTime(d, 1, m)));
    policy.onMiss(missAt(9, makeTime(5, 1)));
    EXPECT_LE(policy.currentT2(), 3u);
    EXPECT_GE(policy.currentT2(), 2u);
}

TEST(AutoTune, OneStepPerDay)
{
    AutoTuneConfig tune;
    tune.cache_blocks = 1; // any allocation exceeds budget
    AutoTunedSievePolicy policy(looseSieve(), tune);
    for (uint64_t d = 0; d < 4; ++d)
        for (BlockId b = 0; b < 50; ++b)
            for (uint64_t m = 0; m < 3; ++m)
                policy.onMiss(missAt(b, makeTime(d, 1, m)));
    // Three day boundaries crossed -> at most +3 steps from t2 = 1.
    EXPECT_LE(policy.currentT2(), 4u);
    EXPECT_EQ(policy.t2History().size(), 3u);
}

TEST(AutoTune, RejectsBadConfig)
{
    AutoTuneConfig bad;
    bad.min_t2 = 5;
    bad.max_t2 = 2;
    EXPECT_THROW(AutoTunedSievePolicy(looseSieve(), bad), FatalError);
    AutoTuneConfig zero;
    zero.churn_budget = 0.0;
    EXPECT_THROW(AutoTunedSievePolicy(looseSieve(), zero), FatalError);
    // t2 may climb to max_t2, so max_t2 is held to the counters'
    // saturation point.
    AutoTuneConfig high;
    high.max_t2 = kMaxMissThreshold;
    EXPECT_NO_THROW(AutoTunedSievePolicy(looseSieve(), high));
    high.max_t2 = kMaxMissThreshold + 1;
    EXPECT_THROW(AutoTunedSievePolicy(looseSieve(), high), FatalError);
}

TEST(AutoTune, Name)
{
    AutoTunedSievePolicy policy(looseSieve(), AutoTuneConfig{});
    EXPECT_STREQ(policy.name(), "SieveStore-C/auto");
    EXPECT_GT(policy.metastateBytes(), 0u);
}

// ---- online adaptive sieve ----------------------------------------

AdaptiveSieveConfig
smallAdaptive(uint32_t t1, uint32_t t2)
{
    AdaptiveSieveConfig cfg;
    cfg.base.imct_slots = 1 << 12;
    cfg.base.t1 = t1;
    cfg.base.t2 = t2;
    cfg.imct_slots = 1 << 10;
    cfg.ghost_budget = 512;
    return cfg;
}

/**
 * A graded-popularity day: block b misses (b % 12) + 1 times, so
 * every loosening of (t1, t2) captures strictly more accesses. The
 * hill has a monotone gradient toward looser thresholds.
 */
void
gradedDay(AdaptiveSievePolicy &policy, uint64_t day, uint64_t blocks)
{
    for (BlockId b = 0; b < blocks; ++b)
        for (uint64_t m = 0; m < b % 12 + 1; ++m)
            policy.onMiss(missAt(b, makeTime(day, 1, m)));
    policy.onDayClose(static_cast<int>(day));
}

TEST(AdaptiveSieve, WalksTowardTheCapturingSetting)
{
    // Start too tight for the workload: t1 = 6, t2 = 4 admits only
    // blocks with >= 10 misses/day. Every one-step loosening captures
    // more, so the day-close hill climb must move and keep moving.
    AdaptiveSievePolicy policy(smallAdaptive(6, 4));
    ASSERT_EQ(policy.currentT1(), 6u);
    ASSERT_EQ(policy.currentT2(), 4u);

    for (uint64_t day = 0; day < 6; ++day)
        gradedDay(policy, day, 200);

    EXPECT_GE(policy.switches(), 2u);
    EXPECT_LT(policy.currentT1() + policy.currentT2(), 10u);
    EXPECT_EQ(policy.history().size(), 6u);
    policy.checkInvariants();
}

TEST(AdaptiveSieve, IncumbentCapturesAfterConvergence)
{
    // Once the sieve has walked loose enough, the incumbent's shadow
    // must itself be capturing accesses — the signal the day-close
    // comparison and the bench's accesses-captured column rest on.
    AdaptiveSievePolicy policy(smallAdaptive(4, 2));
    for (uint64_t day = 0; day < 4; ++day)
        gradedDay(policy, day, 200);
    // Play one more day without closing it and read the epoch counter.
    for (BlockId b = 0; b < 200; ++b)
        for (uint64_t m = 0; m < b % 12 + 1; ++m)
            policy.onMiss(missAt(b, makeTime(4, 1, m)));
    EXPECT_GT(policy.candidateCaptured(0), 0u);
    policy.checkInvariants();
}

TEST(AdaptiveSieve, StaysWithinBoundsUnderAdversarialStreams)
{
    AdaptiveSieveConfig cfg = smallAdaptive(9, 9);
    cfg.min_t1 = 3;
    cfg.max_t1 = 5;
    cfg.min_t2 = 2;
    cfg.max_t2 = 4;
    AdaptiveSievePolicy policy(cfg);
    // Construction clamps the base setting into the bounds.
    EXPECT_EQ(policy.currentT1(), 5u);
    EXPECT_EQ(policy.currentT2(), 4u);

    Rng rng(31);
    for (uint64_t day = 0; day < 8; ++day) {
        // Alternate hot loops and cold sprays to push the hill climb
        // in both directions.
        for (uint64_t op = 0; op < 4000; ++op) {
            const BlockId b = day % 2 == 0 ? rng.nextBelow(32)
                                           : rng.nextBelow(100000);
            policy.onMiss(missAt(b, makeTime(day, 1, op % 50)));
        }
        policy.onDayClose(static_cast<int>(day));
        EXPECT_GE(policy.currentT1(), cfg.min_t1);
        EXPECT_LE(policy.currentT1(), cfg.max_t1);
        EXPECT_GE(policy.currentT2(), cfg.min_t2);
        EXPECT_LE(policy.currentT2(), cfg.max_t2);
        for (size_t i = 0; i < policy.candidateCount(); ++i) {
            const auto [t1, t2] = policy.candidateSetting(i);
            EXPECT_GE(t1, cfg.min_t1);
            EXPECT_LE(t1, cfg.max_t1);
            EXPECT_GE(t2, cfg.min_t2);
            EXPECT_LE(t2, cfg.max_t2);
        }
        policy.checkInvariants();
    }
}

TEST(AdaptiveSieve, IdleEpochsKeepTheIncumbent)
{
    AdaptiveSievePolicy policy(smallAdaptive(9, 4));
    for (int day = 0; day < 3; ++day)
        policy.onDayClose(day);
    EXPECT_EQ(policy.switches(), 0u);
    EXPECT_EQ(policy.currentT1(), 9u);
    EXPECT_EQ(policy.currentT2(), 4u);
    ASSERT_EQ(policy.history().size(), 3u);
    for (const auto &[t1, t2] : policy.history()) {
        EXPECT_EQ(t1, 9u);
        EXPECT_EQ(t2, 4u);
    }
}

TEST(AdaptiveSieve, ChargesShadowStructures)
{
    // The adaptive sieve's metastate is the production tables plus
    // the whole shadow bank, part by part: the page index, the row
    // chunks, the fused IMCT (one counter per candidate per slot) and
    // the candidates' ghost lists (reserved to budget up front).
    AdaptiveSieveConfig cfg = smallAdaptive(9, 4);
    const SieveStoreCPolicy production(cfg.base);
    AdaptiveSievePolicy policy(cfg);
    EXPECT_STREQ(policy.name(), "SieveStore-C/adaptive");
    const auto tun = policy.tuning();
    ASSERT_TRUE(tun.has_value());
    EXPECT_EQ(tun->t1, 9u);
    EXPECT_EQ(tun->t2, 4u);
    EXPECT_EQ(tun->switches, 0u);

    constexpr size_t kCands = AdaptiveSievePolicy::kCandidates;
    constexpr size_t kLanes = AdaptiveSievePolicy::kLanes;
    constexpr size_t kChunkRows = AdaptiveSievePolicy::kChunkRows;
    sievestore::util::IndexList one_ghost;
    one_ghost.reserve(cfg.ghost_budget);
    const uint64_t imct_bytes =
        cfg.imct_slots * kCands * sizeof(WindowedCounter);
    const uint64_t ghost_bytes = kCands * one_ghost.memoryBytes();

    const auto empty = policy.bankBytes();
    EXPECT_EQ(empty.index, 0u);
    EXPECT_EQ(empty.chunks, 0u);
    EXPECT_EQ(empty.imct, imct_bytes);
    EXPECT_EQ(empty.ghosts, ghost_bytes);
    EXPECT_EQ(policy.metastateBytes(),
              production.metastateBytes() + imct_bytes + ghost_bytes);
    EXPECT_EQ(policy.shadowRows(), 0u);
    EXPECT_EQ(policy.shadowPages(), 0u);

    // Loose thresholds over many distinct blocks fill one row per
    // 4 KB page: t1 = 1 puts every block in four candidates' MCTs on
    // its first miss, and nothing misses twice, so no row is freed.
    // The index is charged at its power-of-two slot count (a 4-byte
    // row payload beside each 8-byte page key, plus the dib byte) and
    // holds at most 7/8 of it; the rows are charged in whole chunks,
    // each row a 24-byte header (page key, ghost and MCT lane masks)
    // plus, per lane, five ghost nodes and five windowed counters,
    // and the chunk table adds less than one more chunk.
    AdaptiveSievePolicy loose(smallAdaptive(1, 1));
    const size_t blocks = 3 * kChunkRows * kLanes;
    for (BlockId b = 0; b < blocks; ++b)
        loose.onMiss(missAt(b, makeTime(0, 1)));
    const size_t pages = loose.shadowPages();
    EXPECT_EQ(loose.shadowRows(), blocks);
    EXPECT_EQ(pages, blocks / kLanes);
    ASSERT_GT(pages, kChunkRows);
    const auto full = loose.bankBytes();
    const uint64_t slots = full.index / (16 + 1);
    EXPECT_EQ(full.index % (16 + 1), 0u);
    EXPECT_EQ(slots & (slots - 1), 0u) << "slot count is a power of two";
    EXPECT_GE(slots * 7, pages * 8) << "load factor at most 7/8";
    const uint64_t row_bytes =
        24 + kLanes * kCands * (4 + sizeof(WindowedCounter));
    const uint64_t chunk_bytes = kChunkRows * row_bytes;
    const uint64_t chunks = (pages + kChunkRows - 1) / kChunkRows;
    ASSERT_GE(full.chunks, chunks * chunk_bytes);
    const uint64_t table = full.chunks - chunks * chunk_bytes;
    EXPECT_GE(table, chunks * sizeof(void *));
    EXPECT_LT(table, chunk_bytes) << "rows are charged in whole chunks";
    EXPECT_EQ(full.imct, imct_bytes);
    EXPECT_EQ(full.ghosts, ghost_bytes);
    EXPECT_EQ(loose.metastateBytes(),
              loose.production().metastateBytes() + full.index +
                  full.chunks + full.imct + full.ghosts);
    loose.checkInvariants();
}

TEST(AdaptiveSieve, RejectsBadConfig)
{
    AdaptiveSieveConfig bad = smallAdaptive(4, 2);
    bad.min_t1 = 5;
    bad.max_t1 = 2;
    EXPECT_THROW(AdaptiveSievePolicy{bad}, FatalError);
    AdaptiveSieveConfig zero = smallAdaptive(4, 2);
    zero.ghost_budget = 0;
    EXPECT_THROW(AdaptiveSievePolicy{zero}, FatalError);
    AdaptiveSieveConfig no_slots = smallAdaptive(4, 2);
    no_slots.imct_slots = 0;
    EXPECT_THROW(AdaptiveSievePolicy{no_slots}, FatalError);
    // The shadow bank runs only the two-tier sieve with subwindow
    // pruning; the production sieve's tier ablations are rejected
    // rather than silently run two-tier in the shadows.
    AdaptiveSieveConfig imct_only = smallAdaptive(4, 2);
    imct_only.base.imct_only = true;
    EXPECT_THROW(AdaptiveSievePolicy{imct_only}, FatalError);
    AdaptiveSieveConfig mct_only = smallAdaptive(4, 2);
    mct_only.base.mct_only = true;
    EXPECT_THROW(AdaptiveSievePolicy{mct_only}, FatalError);
    AdaptiveSieveConfig no_prune = smallAdaptive(4, 2);
    no_prune.base.prune_on_subwindow = false;
    EXPECT_THROW(AdaptiveSievePolicy{no_prune}, FatalError);
    // Candidates may reach either upper bound, so both are held to
    // the counters' saturation point.
    AdaptiveSieveConfig high_t1 = smallAdaptive(4, 2);
    high_t1.max_t1 = kMaxMissThreshold + 1;
    EXPECT_THROW(AdaptiveSievePolicy{high_t1}, FatalError);
    AdaptiveSieveConfig high_t2 = smallAdaptive(4, 2);
    high_t2.max_t2 = kMaxMissThreshold + 1;
    EXPECT_THROW(AdaptiveSievePolicy{high_t2}, FatalError);
    AdaptiveSieveConfig at_bound = smallAdaptive(4, 2);
    at_bound.max_t1 = kMaxMissThreshold;
    at_bound.max_t2 = kMaxMissThreshold;
    EXPECT_NO_THROW(AdaptiveSievePolicy{at_bound});
    // The window is validated by the production sieve's tables.
    AdaptiveSieveConfig k5 = smallAdaptive(4, 2);
    k5.base.window.k = kMaxSubwindows + 1;
    EXPECT_THROW(AdaptiveSievePolicy{k5}, FatalError);
}

} // namespace

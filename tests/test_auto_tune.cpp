/**
 * @file
 * Unit tests for the self-tuning sieves (Section 7 "tuning"): the
 * churn-budget controller (AutoTunedSievePolicy) and the online
 * adaptive sieve (AdaptiveSievePolicy, shadow-candidate epochs).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/appliance.hpp"
#include "core/auto_tune.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "trace/trace_reader.hpp"
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
    // The adaptive sieve's metastate must include every shadow sieve
    // and ghost, not just the production tables.
    AdaptiveSieveConfig cfg = smallAdaptive(9, 4);
    const SieveStoreCPolicy production(cfg.base);
    AdaptiveSievePolicy policy(cfg);
    EXPECT_STREQ(policy.name(), "SieveStore-C/adaptive");
    EXPECT_GT(policy.metastateBytes(), production.metastateBytes());
    const auto tun = policy.tuning();
    ASSERT_TRUE(tun.has_value());
    EXPECT_EQ(tun->t1, 9u);
    EXPECT_EQ(tun->t2, 4u);
    EXPECT_EQ(tun->switches, 0u);
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
}

/** A multi-day trace with per-day popularity drift. */
std::vector<sievestore::trace::Request>
driftingTrace(uint64_t seed, size_t n)
{
    namespace trace = sievestore::trace;
    sievestore::util::Rng rng(seed);
    std::vector<trace::Request> reqs;
    uint64_t t = 0;
    for (size_t i = 0; i < n; ++i) {
        trace::Request r;
        t += rng.nextBelow(90 * 1000000);
        r.time = t;
        r.volume = static_cast<trace::VolumeId>(rng.nextBelow(4));
        r.server = static_cast<trace::ServerId>(rng.nextBelow(3));
        r.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        // Hot set drifts with the day so the tuner has work to do.
        const uint64_t day = t / sievestore::util::kUsPerDay;
        r.offset_blocks = rng.nextBool(0.6)
                              ? (day * 97 + rng.nextBelow(48)) * 8
                              : rng.nextBelow(1 << 18);
        r.length_blocks = 1 + static_cast<uint32_t>(rng.nextBelow(16));
        r.latency_us = static_cast<uint32_t>(rng.nextBelow(4000000));
        reqs.push_back(r);
    }
    return reqs;
}

TEST(AdaptiveSieve, ApplianceFillsTuningColumnsIdenticallyAcrossEngines)
{
    namespace sim = sievestore::sim;
    namespace trace = sievestore::trace;
    const auto reqs = driftingTrace(2027, 5000);

    sim::PolicyConfig policy;
    policy.kind = sim::PolicyKind::Adaptive;
    policy.sieve_c.imct_slots = 1 << 12;
    policy.sieve_c.t1 = 4;
    policy.sieve_c.t2 = 2;
    policy.adaptive.imct_slots = 1 << 10;
    policy.adaptive.ghost_budget = 512;

    ApplianceConfig flat_cfg;
    flat_cfg.cache_blocks = 512;
    flat_cfg.track_occupancy = false;
    auto flat_app = sim::makeAppliance(policy, flat_cfg);

    // Reference engine: the same AdaptiveSievePolicy behind the
    // virtual AllocationPolicy interface, run in FlatSieve's custom
    // mode through the allocation factory.
    AdaptiveSieveConfig ref_adaptive = policy.adaptive;
    ref_adaptive.base = policy.sieve_c;
    ApplianceConfig ref_cfg = flat_cfg;
    ref_cfg.allocation = [ref_adaptive] {
        return std::make_unique<AdaptiveSievePolicy>(ref_adaptive);
    };
    auto ref_app = sim::makeAppliance(policy, ref_cfg);

    trace::VectorTrace flat_trace(reqs);
    sim::runTrace(flat_trace, *flat_app);
    trace::VectorTrace ref_trace(reqs);
    sim::runTrace(ref_trace, *ref_app);

    EXPECT_STREQ(flat_app->policyName(), "SieveStore-C/adaptive");
    const auto &fd = flat_app->daily();
    const auto &rd = ref_app->daily();
    ASSERT_EQ(fd.size(), rd.size());
    ASSERT_GE(fd.size(), 3u) << "trace must span several days";
    bool any_tuning = false;
    uint64_t switch_sum = 0;
    for (size_t d = 0; d < fd.size(); ++d) {
        EXPECT_EQ(fd[d].hits, rd[d].hits) << "day " << d;
        EXPECT_EQ(fd[d].allocation_write_blocks,
                  rd[d].allocation_write_blocks)
            << "day " << d;
        EXPECT_EQ(fd[d].tune_t1, rd[d].tune_t1) << "day " << d;
        EXPECT_EQ(fd[d].tune_t2, rd[d].tune_t2) << "day " << d;
        EXPECT_EQ(fd[d].tune_switches, rd[d].tune_switches)
            << "day " << d;
        EXPECT_LE(fd[d].tune_switches, 1u)
            << "at most one switch per day close";
        any_tuning = any_tuning || fd[d].tune_t1 != 0;
        switch_sum += fd[d].tune_switches;
    }
    EXPECT_TRUE(any_tuning) << "tuning columns never populated";
    EXPECT_EQ(flat_app->totals().tune_switches, switch_sum);
    flat_app->checkInvariants();
    ref_app->checkInvariants();
}

} // namespace

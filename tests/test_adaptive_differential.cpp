/**
 * @file
 * Differential: the adaptive sieve's fused shadow bank
 * (core::AdaptiveSievePolicy) against the per-candidate oracle
 * (tests/oracle/reference_adaptive_sieve.hpp), which runs five
 * independent SieveStoreCPolicy + GhostCache shadows with eager MCT
 * pruning.
 *
 * Policy level, per day: every candidate's captured count and
 * setting before the close, then history(), switches() and tuning()
 * after it, plus the production decision on every miss. Appliance
 * level: every DailyReport field per day, the same per-day candidate
 * captures through the appliance, and sharded parallel replay at 1, 2
 * and 4 shards against a serial replay of the oracle. Streams cover
 * drifting multi-day traffic, tiny ghost budgets, t2 = 0 (clamped up
 * to the bounds), clamped bounds where neighbors coincide, idle days,
 * timestamps whose subwindow steps backwards — where lazy MCT expiry
 * must still match the oracle's eager prunes — and runs of same-page
 * blocks from request extents, the path the bank's page rows and page
 * memo take.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/appliance.hpp"
#include "core/auto_tune.hpp"
#include "oracle/reference_adaptive_sieve.hpp"
#include "sim/driver.hpp"
#include "sim/experiment.hpp"
#include "sim/sharded.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_reader.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using core::AdaptiveSieveConfig;
using core::AdaptiveSievePolicy;
using core::AllocDecision;
using core::DailyReport;
using oracle::ReferenceAdaptiveSievePolicy;
using trace::BlockAccess;
using util::kUsPerDay;
using util::kUsPerHour;
using util::Rng;

AdaptiveSieveConfig
smallConfig(uint32_t t1, uint32_t t2)
{
    AdaptiveSieveConfig cfg;
    cfg.base.imct_slots = 1 << 11;
    cfg.base.t1 = t1;
    cfg.base.t2 = t2;
    // 15-minute subwindows: a few simulated days cross hundreds of
    // subwindow boundaries, so MCT entries expire all the time.
    cfg.base.window = core::WindowSpec::ofWindow(kUsPerHour, 4);
    cfg.imct_slots = 1 << 9;
    cfg.ghost_budget = 256;
    return cfg;
}

/**
 * Days of skewed traffic: a hot set that drifts each day (squared
 * uniform draws, so popularity is graded and thresholds matter) over
 * a cold tail. Timestamps advance monotonically unless `back_every`
 * is set, in which case every back_every-th access steps back up to
 * six subwindows of `sub_us`.
 */
std::vector<BlockAccess>
driftingStream(uint64_t seed, size_t n, uint64_t days,
               uint64_t back_every = 0,
               util::TimeUs sub_us = kUsPerHour / 4)
{
    Rng rng(seed);
    std::vector<BlockAccess> out;
    out.reserve(n);
    const util::TimeUs span = days * kUsPerDay;
    for (size_t i = 0; i < n; ++i) {
        BlockAccess a;
        a.time = span * i / n;
        if (back_every != 0 && i % back_every == back_every - 1) {
            const util::TimeUs back = (1 + rng.nextBelow(6)) * sub_us;
            a.time = a.time > back ? a.time - back : 0;
        }
        a.completion = a.time + 1000;
        const uint64_t day = util::dayOf(a.time);
        const uint64_t hot = rng.nextBelow(400);
        a.block = rng.nextBool(0.7) ? day * 53 + hot * hot / 400
                                    : 100000 + rng.nextBelow(30000);
        a.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        out.push_back(a);
    }
    return out;
}

/**
 * Days of request extents expanded to block accesses in block order,
 * as the appliance hands them to the sieve: 1-24 consecutive blocks at
 * one timestamp, starting page-aligned or not (so runs straddle 4 KB
 * pages), on one of two volumes that share block numbers. Half the
 * extents revisit a fixed, graded set of hot pages every day, the rest
 * land on a per-day drifting set or a cold tail. Timestamps advance
 * per extent unless `back_every` is set, in which case every
 * back_every-th extent steps back up to six subwindows of `sub_us`.
 */
std::vector<BlockAccess>
extentStream(uint64_t seed, size_t n, uint64_t days,
             uint64_t back_every = 0,
             util::TimeUs sub_us = kUsPerHour / 4)
{
    Rng rng(seed);
    std::vector<BlockAccess> out;
    out.reserve(n + 24);
    const util::TimeUs span = days * kUsPerDay;
    for (uint64_t e = 0; out.size() < n; ++e) {
        BlockAccess a;
        a.time = span * out.size() / n;
        if (back_every != 0 && e % back_every == back_every - 1) {
            const util::TimeUs back = (1 + rng.nextBelow(6)) * sub_us;
            a.time = a.time > back ? a.time - back : 0;
        }
        a.completion = a.time + 1000;
        a.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        const uint64_t day = util::dayOf(a.time);
        const uint64_t kind = rng.nextBelow(10);
        const uint64_t hot = rng.nextBelow(64);
        const uint64_t page = kind < 5   ? hot * hot / 64
                              : kind < 8 ? 1000 + day * 37 + rng.nextBelow(48)
                                         : 100000 + rng.nextBelow(20000);
        const uint64_t start =
            page * trace::kBlocksPerPage +
            (rng.nextBool(0.5) ? 0 : rng.nextBelow(trace::kBlocksPerPage));
        const auto volume = static_cast<trace::VolumeId>(rng.nextBelow(2));
        const uint64_t length = 1 + rng.nextBelow(24);
        for (uint64_t k = 0; k < length; ++k) {
            a.block = trace::makeBlockId(volume, start + k);
            out.push_back(a);
        }
    }
    return out;
}

void
expectSameCandidates(const AdaptiveSievePolicy &bank,
                     const ReferenceAdaptiveSievePolicy &ref,
                     const std::string &where)
{
    ASSERT_EQ(bank.candidateCount(), ref.candidateCount()) << where;
    for (size_t i = 0; i < ref.candidateCount(); ++i) {
        EXPECT_EQ(bank.candidateCaptured(i), ref.candidateCaptured(i))
            << where << " candidate " << i;
        EXPECT_EQ(bank.candidateSetting(i), ref.candidateSetting(i))
            << where << " candidate " << i;
    }
}

void
closeDay(AdaptiveSievePolicy &bank, ReferenceAdaptiveSievePolicy &ref,
         int day, const std::string &where)
{
    expectSameCandidates(bank, ref, where + " day " +
                                        std::to_string(day));
    bank.onDayClose(day);
    ref.onDayClose(day);
    EXPECT_EQ(bank.history(), ref.history()) << where << " day " << day;
    EXPECT_EQ(bank.switches(), ref.switches()) << where;
    EXPECT_EQ(bank.currentT1(), ref.currentT1()) << where;
    EXPECT_EQ(bank.currentT2(), ref.currentT2()) << where;
    const auto bt = bank.tuning(), rt = ref.tuning();
    ASSERT_TRUE(bt.has_value() && rt.has_value());
    EXPECT_EQ(bt->t1, rt->t1) << where;
    EXPECT_EQ(bt->t2, rt->t2) << where;
    EXPECT_EQ(bt->switches, rt->switches) << where;
}

/**
 * Replay `stream` through both policies, closing each calendar day
 * the stream leaves (idle days included) and `extra_idle` more at the
 * end. Every eighth access is fed as a hit, the rest as misses whose
 * production decisions must agree. Returns the switches performed.
 */
uint64_t
replayBoth(const AdaptiveSieveConfig &cfg,
           const std::vector<BlockAccess> &stream,
           const std::string &where, int extra_idle = 0)
{
    AdaptiveSievePolicy bank(cfg);
    ReferenceAdaptiveSievePolicy ref(cfg);
    int day = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
        const BlockAccess &a = stream[i];
        while (static_cast<uint64_t>(day) < util::dayOf(a.time)) {
            closeDay(bank, ref, day, where);
            ++day;
        }
        if (i % 8 == 7) {
            bank.onHit(a);
            ref.onHit(a);
        } else {
            const AllocDecision b = bank.onMiss(a);
            const AllocDecision r = ref.onMiss(a);
            if (b != r) {
                ADD_FAILURE() << where << ": production decisions "
                              << "diverge at access " << i;
                return bank.switches();
            }
        }
        if (i % 4096 == 0)
            bank.checkInvariants();
    }
    for (int d = 0; d <= extra_idle; ++d, ++day)
        closeDay(bank, ref, day, where);
    EXPECT_EQ(bank.production().allocations(),
              ref.production().allocations())
        << where;
    bank.checkInvariants();
    ref.checkInvariants();
    return bank.switches();
}

TEST(AdaptiveDifferential, DriftingDaysMatchTheOracle)
{
    uint64_t switches = 0;
    for (uint64_t seed = 1; seed <= 3; ++seed)
        switches += replayBoth(smallConfig(6, 3),
                               driftingStream(seed, 60000, 6),
                               "seed " + std::to_string(seed));
    // Walking from a tight start must actually move the thresholds,
    // or the day-close argmax was never exercised.
    EXPECT_GT(switches, 0u);
}

TEST(AdaptiveDifferential, PaperWindowMatchesTheOracle)
{
    AdaptiveSieveConfig cfg = smallConfig(4, 2);
    cfg.base.window = core::WindowSpec::paperDefault();
    replayBoth(cfg, driftingStream(11, 50000, 5), "paper window");
}

TEST(AdaptiveDifferential, TinyGhostBudgetsMatchTheOracle)
{
    for (const uint64_t budget : {uint64_t{1}, uint64_t{2}, uint64_t{7}}) {
        AdaptiveSieveConfig cfg = smallConfig(2, 1);
        cfg.ghost_budget = budget;
        replayBoth(cfg, driftingStream(20 + budget, 30000, 4),
                   "ghost budget " + std::to_string(budget));
    }
}

TEST(AdaptiveDifferential, ZeroT2IsClampedLikeTheOracle)
{
    // t2 = 0 is below every legal t2 bound, so both constructions
    // clamp it to min_t2 and never run the immediate-allocation path.
    AdaptiveSieveConfig cfg = smallConfig(3, 0);
    AdaptiveSievePolicy bank(cfg);
    EXPECT_EQ(bank.currentT2(), cfg.min_t2);
    replayBoth(cfg, driftingStream(31, 30000, 4), "t2 = 0");
}

TEST(AdaptiveDifferential, CoincidingNeighborsMatchTheOracle)
{
    // Degenerate bounds: every neighbor clamps onto the incumbent.
    AdaptiveSieveConfig pinned = smallConfig(9, 9);
    pinned.min_t1 = pinned.max_t1 = 3;
    pinned.min_t2 = pinned.max_t2 = 2;
    EXPECT_EQ(replayBoth(pinned, driftingStream(41, 30000, 4), "pinned"),
              0u);
    // Lower edge: t1 - step and t2 - step clamp onto the incumbent.
    AdaptiveSieveConfig edge = smallConfig(1, 1);
    edge.t1_step = 5;
    replayBoth(edge, driftingStream(42, 30000, 4), "lower edge");
    // Upper edge.
    AdaptiveSieveConfig top = smallConfig(8, 4);
    top.max_t1 = 8;
    top.max_t2 = 4;
    replayBoth(top, driftingStream(43, 30000, 4), "upper edge");
}

TEST(AdaptiveDifferential, IdleDaysMatchTheOracle)
{
    // Traffic on days 0, 3 and 7 only: the closes in between see no
    // accesses, and every MCT entry has long expired when traffic
    // resumes.
    std::vector<BlockAccess> stream;
    for (const uint64_t day : {uint64_t{0}, uint64_t{3}, uint64_t{7}}) {
        const auto burst = driftingStream(50 + day, 8000, 1);
        for (BlockAccess a : burst) {
            a.time += day * kUsPerDay;
            a.completion += day * kUsPerDay;
            stream.push_back(a);
        }
    }
    replayBoth(smallConfig(3, 2), stream, "idle days", 3);
}

TEST(AdaptiveDifferential, BackwardSubwindowsMatchTheOracle)
{
    // Every 9th (then every 3rd) access steps back one to six
    // subwindows — past the k = 4 window, so an entry the oracle
    // pruned at the newer subwindow would look live again at the
    // older one if the bank expired only against the current time.
    replayBoth(smallConfig(3, 2), driftingStream(61, 40000, 4, 9),
               "backward every 9");
    replayBoth(smallConfig(2, 1), driftingStream(62, 30000, 3, 3),
               "backward every 3");
    AdaptiveSieveConfig tiny = smallConfig(2, 2);
    tiny.ghost_budget = 3;
    replayBoth(tiny, driftingStream(63, 30000, 3, 5), "backward tiny");
}

TEST(AdaptiveDifferential, BackwardStepRestoresNoPrunedEntry)
{
    // Hand-built from (t1, t2) = (1, 2): the candidates are (1, 2)
    // twice, (3, 2), (1, 1) and (1, 3). Blocks 7 and 9 each miss
    // three times in subwindow 0, so (1, 2) and (1, 1) hold both in
    // their ghosts while (3, 2) and (1, 3) hold both in their MCTs.
    // Block 9 returns at subwindow 10: a ghost hit for three
    // candidates, whose prune points stay at 0, so the bank does not
    // sweep; (3, 2) and (1, 3) miss and prune at 10, which in the
    // oracle drops block 7. Block 7 then returns at subwindow 2,
    // where its old counter would be live again: both must treat it
    // as pruned and re-admit it at count 0. Counting on the stale
    // entry instead would allocate it for (1, 3) at once.
    AdaptiveSieveConfig cfg = smallConfig(1, 2);
    const util::TimeUs sub = cfg.base.window.subwindow_us;
    auto at = [](trace::BlockId b, util::TimeUs t) {
        BlockAccess a;
        a.block = b;
        a.time = t;
        a.completion = t + 1;
        return a;
    };
    const std::vector<BlockAccess> stream = {
        at(7, 0),           at(7, 1),           at(7, 2),
        at(9, 3),           at(9, 4),           at(9, 5),
        at(9, 10 * sub),    at(7, 2 * sub),     at(7, 2 * sub + 1),
        at(7, 2 * sub + 2), at(7, 2 * sub + 3), at(7, 2 * sub + 4)};
    AdaptiveSievePolicy bank(cfg);
    ReferenceAdaptiveSievePolicy ref(cfg);
    ASSERT_EQ(ref.candidateSetting(2), std::make_pair(3u, 2u));
    ASSERT_EQ(ref.candidateSetting(4), std::make_pair(1u, 3u));
    for (size_t i = 0; i < stream.size(); ++i) {
        ASSERT_EQ(bank.onMiss(stream[i]), ref.onMiss(stream[i]));
        expectSameCandidates(bank, ref, "access " + std::to_string(i));
        bank.checkInvariants();
    }
    // Re-admitted at subwindow 2, (1, 3) allocates block 7 on its
    // third additional miss and captures only the last access.
    EXPECT_EQ(ref.candidateCaptured(4), 1u);
}

TEST(AdaptiveDifferential, PageRunsMatchTheOracle)
{
    // Runs of same-page blocks take the bank's one-probe path. From
    // (3, 1), candidate (1, 1) tracks a page well before the others
    // do; at budget 1 its ghost victim is then often another lane of
    // the row being observed, the row's only other bit, and rows the
    // page memo points at empty and free in the middle of a run.
    for (const uint64_t budget :
         {uint64_t{1}, uint64_t{2}, uint64_t{7}, uint64_t{256}}) {
        AdaptiveSieveConfig cfg = smallConfig(3, 1);
        cfg.ghost_budget = budget;
        replayBoth(cfg, extentStream(70 + budget, 40000, 4),
                   "page runs, ghost budget " + std::to_string(budget));
    }
}

TEST(AdaptiveDifferential, PageRunsInThePaperWindowMatchTheOracle)
{
    AdaptiveSieveConfig cfg = smallConfig(4, 2);
    cfg.base.window = core::WindowSpec::paperDefault();
    replayBoth(cfg, extentStream(81, 50000, 5), "page runs, paper window");
}

TEST(AdaptiveDifferential, BackwardPageRunsMatchTheOracle)
{
    // A backward step inside a run expires one candidate's bits across
    // the whole bank while the observed row must stay put.
    replayBoth(smallConfig(3, 1), extentStream(91, 40000, 4, 7),
               "backward page runs every 7");
    AdaptiveSieveConfig tiny = smallConfig(3, 1);
    tiny.ghost_budget = 1;
    replayBoth(tiny, extentStream(92, 30000, 3, 3),
               "backward page runs, ghost budget 1");
}

// ---- appliance level ----------------------------------------------

/** Every field of one day's report, model and storage columns. */
void
expectReportEq(const DailyReport &a, const DailyReport &b,
               const std::string &where)
{
    EXPECT_EQ(a.accesses, b.accesses) << where;
    EXPECT_EQ(a.read_accesses, b.read_accesses) << where;
    EXPECT_EQ(a.hits, b.hits) << where;
    EXPECT_EQ(a.read_hits, b.read_hits) << where;
    EXPECT_EQ(a.write_hits, b.write_hits) << where;
    EXPECT_EQ(a.allocation_write_blocks, b.allocation_write_blocks)
        << where;
    EXPECT_EQ(a.batch_moved_blocks, b.batch_moved_blocks) << where;
    EXPECT_EQ(a.ssd_read_ios, b.ssd_read_ios) << where;
    EXPECT_EQ(a.ssd_write_ios, b.ssd_write_ios) << where;
    EXPECT_EQ(a.ssd_alloc_ios, b.ssd_alloc_ios) << where;
    EXPECT_EQ(a.tune_t1, b.tune_t1) << where;
    EXPECT_EQ(a.tune_t2, b.tune_t2) << where;
    EXPECT_EQ(a.tune_switches, b.tune_switches) << where;
    EXPECT_EQ(a.storage_read_ios, b.storage_read_ios) << where;
    EXPECT_EQ(a.storage_write_ios, b.storage_write_ios) << where;
    EXPECT_EQ(a.storage_read_errors, b.storage_read_errors) << where;
    EXPECT_EQ(a.storage_write_errors, b.storage_write_errors) << where;
}

void
expectDaysEq(const std::vector<DailyReport> &a,
             const std::vector<DailyReport> &b, const std::string &where)
{
    ASSERT_EQ(a.size(), b.size()) << where;
    for (size_t d = 0; d < a.size(); ++d)
        expectReportEq(a[d], b[d], where + " day " + std::to_string(d));
}

/**
 * Forwards to a wrapped adaptive policy and snapshots every
 * candidate's captured count and setting before each day close.
 */
template <typename Policy>
class CaptureRecorder : public core::AllocationPolicy
{
  public:
    using Snapshot = std::vector<std::pair<uint64_t, uint64_t>>;

    CaptureRecorder(const AdaptiveSieveConfig &cfg,
                    std::vector<Snapshot> *days)
        : policy_(cfg), days_(days)
    {
    }

    AllocDecision
    onMiss(const BlockAccess &a) override
    {
        return policy_.onMiss(a);
    }
    void onHit(const BlockAccess &a) override { policy_.onHit(a); }
    void
    onDayClose(int day) override
    {
        Snapshot s;
        for (size_t i = 0; i < policy_.candidateCount(); ++i) {
            const auto [t1, t2] = policy_.candidateSetting(i);
            s.emplace_back(policy_.candidateCaptured(i),
                           uint64_t{t1} << 32 | t2);
        }
        days_->push_back(s);
        policy_.onDayClose(day);
    }
    std::optional<core::SieveTuning>
    tuning() const override
    {
        return policy_.tuning();
    }
    const char *name() const override { return policy_.name(); }
    void checkInvariants() const override { policy_.checkInvariants(); }

  private:
    Policy policy_;
    std::vector<Snapshot> *days_;
};

/** A multi-day request trace whose hot set drifts each day. */
std::vector<trace::Request>
driftingTrace(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<trace::Request> reqs;
    uint64_t t = 0;
    for (size_t i = 0; i < n; ++i) {
        trace::Request r;
        t += rng.nextBelow(90 * 1000000);
        r.time = t;
        r.volume = static_cast<trace::VolumeId>(rng.nextBelow(4));
        r.server = static_cast<trace::ServerId>(rng.nextBelow(3));
        r.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
        const uint64_t day = t / kUsPerDay;
        r.offset_blocks = rng.nextBool(0.6)
                              ? (day * 97 + rng.nextBelow(48)) * 8
                              : rng.nextBelow(1 << 18);
        r.length_blocks = 1 + static_cast<uint32_t>(rng.nextBelow(16));
        r.latency_us = static_cast<uint32_t>(rng.nextBelow(4000000));
        reqs.push_back(r);
    }
    return reqs;
}

sim::PolicyConfig
adaptivePolicy()
{
    sim::PolicyConfig policy;
    policy.kind = sim::PolicyKind::Adaptive;
    policy.sieve_c.imct_slots = 1 << 12;
    policy.sieve_c.t1 = 4;
    policy.sieve_c.t2 = 2;
    policy.adaptive.imct_slots = 1 << 10;
    policy.adaptive.ghost_budget = 512;
    return policy;
}

/** The adaptive config makeAppliance derives from `policy`. */
AdaptiveSieveConfig
adaptiveOf(const sim::PolicyConfig &policy)
{
    AdaptiveSieveConfig cfg = policy.adaptive;
    cfg.base = policy.sieve_c;
    return cfg;
}

TEST(AdaptiveDifferential, ApplianceReportsMatchTheOracle)
{
    const auto reqs = driftingTrace(2027, 6000);
    const sim::PolicyConfig policy = adaptivePolicy();
    const AdaptiveSieveConfig acfg = adaptiveOf(policy);
    core::ApplianceConfig node;
    node.cache_blocks = 512;
    node.track_occupancy = false;

    // The bank through the spec path, and both constructions through
    // the custom-policy path with their per-day captures recorded.
    auto spec_app = sim::makeAppliance(policy, node);
    std::vector<CaptureRecorder<AdaptiveSievePolicy>::Snapshot>
        bank_days, ref_days;
    core::ApplianceConfig bank_cfg = node;
    bank_cfg.allocation = [&] {
        return std::make_unique<CaptureRecorder<AdaptiveSievePolicy>>(
            acfg, &bank_days);
    };
    core::ApplianceConfig ref_cfg = node;
    ref_cfg.allocation = [&] {
        return std::make_unique<
            CaptureRecorder<ReferenceAdaptiveSievePolicy>>(acfg,
                                                           &ref_days);
    };
    auto bank_app = sim::makeAppliance(policy, bank_cfg);
    auto ref_app = sim::makeAppliance(policy, ref_cfg);
    for (core::Appliance *app :
         {spec_app.get(), bank_app.get(), ref_app.get()}) {
        trace::VectorTrace t(reqs);
        sim::runTrace(t, *app);
    }

    EXPECT_STREQ(spec_app->policyName(), "SieveStore-C/adaptive");
    ASSERT_GE(ref_app->daily().size(), 3u) << "trace must span days";
    expectDaysEq(spec_app->daily(), ref_app->daily(), "spec vs oracle");
    expectDaysEq(bank_app->daily(), ref_app->daily(),
                 "custom vs oracle");
    expectReportEq(spec_app->totals(), ref_app->totals(), "totals");
    EXPECT_EQ(bank_days, ref_days);
    ASSERT_FALSE(ref_days.empty());
    uint64_t switch_sum = 0;
    bool any_tuning = false;
    for (const DailyReport &d : spec_app->daily()) {
        EXPECT_LE(d.tune_switches, 1u) << "one switch per day close";
        switch_sum += d.tune_switches;
        any_tuning = any_tuning || d.tune_t1 != 0;
    }
    EXPECT_TRUE(any_tuning) << "tuning columns never populated";
    EXPECT_EQ(spec_app->totals().tune_switches, switch_sum);
    spec_app->checkInvariants();
    bank_app->checkInvariants();
    ref_app->checkInvariants();
}

TEST(AdaptiveDifferential, ShardedParallelMatchesSerialOracle)
{
    trace::SyntheticConfig scfg;
    scfg.seed = 0xada;
    scfg.scale = 1.0 / 131072.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), scfg);
    const sim::PolicyConfig policy = adaptivePolicy();
    const AdaptiveSieveConfig acfg = adaptiveOf(policy);

    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
        sim::ShardedConfig cfg;
        cfg.shards = shards;
        cfg.policy = policy;
        cfg.node.cache_blocks = 2048 / shards + 64;
        cfg.node.track_occupancy = false;

        // Nodes are built in shard order, and node s's sieve seed is
        // the base seed + s (decorrelated IMCTs); the oracle factory
        // mirrors that.
        sim::ShardedConfig oracle_cfg = cfg;
        oracle_cfg.batch = 1;
        auto next_node = std::make_shared<uint64_t>(0);
        oracle_cfg.node.allocation = [acfg, next_node] {
            AdaptiveSieveConfig node_cfg = acfg;
            node_cfg.base.seed += (*next_node)++;
            return std::make_unique<ReferenceAdaptiveSievePolicy>(
                node_cfg);
        };
        gen.reset();
        const sim::ShardedResult serial =
            sim::runSharded(gen, oracle_cfg);

        sim::ShardedConfig parallel_cfg = cfg;
        parallel_cfg.batch = 64;
        gen.reset();
        const sim::ShardedResult parallel =
            sim::runShardedParallel(gen, parallel_cfg);

        const std::string where = std::to_string(shards) + " shards";
        ASSERT_EQ(serial.nodes.size(), shards) << where;
        ASSERT_EQ(parallel.nodes.size(), shards) << where;
        uint64_t switches = 0;
        for (size_t s = 0; s < shards; ++s) {
            expectDaysEq(parallel.nodes[s]->daily(),
                         serial.nodes[s]->daily(),
                         where + " shard " + std::to_string(s));
            switches += parallel.nodes[s]->totals().tune_switches;
            parallel.nodes[s]->checkInvariants();
        }
        ASSERT_EQ(*next_node, shards) << where;
        expectReportEq(parallel.totals(), serial.totals(),
                       where + " totals");
        EXPECT_GT(parallel.totals().tune_t1, 0u) << where;
        EXPECT_GT(switches, 0u) << where << ": no shard ever switched";
    }
}

} // namespace

/**
 * @file
 * Differential test: the page-keyed analysis::AccessCounter against the
 * per-block reference counter (tests/oracle/), view for view.
 *
 * Seeded streams mix single-block observations, extents that start
 * unaligned or straddle 4 KB pages (fed through both observe() and
 * observeBatch()), batches that scatter one block number over several
 * volumes, block numbers at the top of the 48-bit field, a hot set
 * whose counts pass 255, and random clear() epochs. At every
 * checkpoint count(), uniqueBlocks(), totalAccesses(), sortedByCount(),
 * sortedBlocks() and countsAtLeast(t) for t in {0, 1, 2, 10, 255} must
 * agree element for element.
 *
 * One level up, SieveStore-D and RandSieve-BlkD appliances built on the
 * live selectors and on selectors over the reference counter must
 * select the same block vector at every epoch and produce the same
 * DailyReports, on three synthetic weeks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/access_counter.hpp"
#include "core/appliance.hpp"
#include "core/discrete.hpp"
#include "oracle/reference_access_counter.hpp"
#include "sim/driver.hpp"
#include "trace/synthetic.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore;
using analysis::AccessCounter;
using analysis::BlockCount;
using oracle::ReferenceAccessCounter;
using trace::BlockId;
using util::Rng;

constexpr uint64_t kThresholds[] = {0, 1, 2, 10, 255};

void
expectSamePairs(const std::vector<BlockCount> &live,
                const std::vector<BlockCount> &ref, const std::string &what)
{
    ASSERT_EQ(live.size(), ref.size()) << what;
    for (size_t i = 0; i < live.size(); ++i) {
        ASSERT_EQ(live[i].block, ref[i].block) << what << " [" << i << "]";
        ASSERT_EQ(live[i].count, ref[i].count) << what << " [" << i << "]";
    }
}

/** Both counters, driven together. */
class CounterPair
{
  public:
    void
    observe(BlockId block)
    {
        live_.observe(block);
        ref_.observe(block);
    }

    void
    observeBatch(const std::vector<BlockId> &blocks)
    {
        live_.observeBatch(blocks);
        ref_.observeBatch(blocks);
    }

    void
    clear()
    {
        live_.clear();
        ref_.clear();
    }

    /** Compare every read-only view; `where` labels a failure. */
    void
    compare(const std::string &where) const
    {
        live_.checkInvariants();
        ref_.checkInvariants();
        ASSERT_EQ(live_.uniqueBlocks(), ref_.uniqueBlocks()) << where;
        ASSERT_EQ(live_.empty(), ref_.empty()) << where;
        ASSERT_EQ(live_.totalAccesses(), ref_.totalAccesses()) << where;
        const std::vector<BlockId> blocks = ref_.sortedBlocks();
        ASSERT_EQ(live_.sortedBlocks(), blocks) << where;
        // Every block of every observed page (some never observed
        // themselves) and the next page's first block.
        BlockId last_page = ~BlockId{0};
        for (const BlockId b : blocks) {
            const BlockId page = trace::pageStart(b);
            if (page == last_page)
                continue;
            last_page = page;
            for (BlockId nb = page; nb <= page + trace::kBlocksPerPage; ++nb)
                ASSERT_EQ(live_.count(nb), ref_.count(nb))
                    << where << " count(" << nb << ")";
        }
        expectSamePairs(live_.sortedByCount(), ref_.sortedByCount(),
                        where + " sortedByCount");
        for (const uint64_t t : kThresholds)
            expectSamePairs(live_.countsAtLeast(t), ref_.countsAtLeast(t),
                            where + " countsAtLeast(" +
                                std::to_string(t) + ")");
    }

    uint64_t
    maxCount() const
    {
        const auto ranked = ref_.sortedByCount();
        return ranked.empty() ? 0 : ranked.front().count;
    }

  private:
    AccessCounter live_;
    ReferenceAccessCounter ref_;
};

/** A block from one of a few volumes, low or at the 48-bit top. */
BlockId
randomBlock(Rng &rng, uint64_t room)
{
    static constexpr trace::VolumeId kVolumes[] = {0, 1, 7, 65535};
    const trace::VolumeId vol = kVolumes[rng.nextBelow(4)];
    const uint64_t top = trace::kBlockNrMask - room - rng.nextBelow(4096);
    const uint64_t nr = rng.nextBool(0.25) ? top : rng.nextBelow(1 << 14);
    return trace::makeBlockId(vol, nr);
}

void
runStream(uint64_t seed, int ops)
{
    Rng rng(seed);
    CounterPair pair;
    // A small hot set, revisited often enough to pass 255.
    std::vector<BlockId> hot;
    for (int i = 0; i < 24; ++i)
        hot.push_back(randomBlock(rng, 64));

    const std::string label = "seed " + std::to_string(seed);
    int epoch = 0;
    uint64_t max_count = 0;
    for (int op = 0; op < ops; ++op) {
        switch (rng.nextBelow(10)) {
          case 0:
          case 1: // one block
            pair.observe(randomBlock(rng, 0));
            break;
          case 2: { // scattered batch: one block number on many volumes
            const uint64_t nr = trace::blockNrOf(randomBlock(rng, 0));
            const uint64_t len = 1 + rng.nextBelow(16);
            std::vector<BlockId> scatter;
            for (uint64_t i = 0; i < len; ++i) {
                const auto vol =
                    static_cast<trace::VolumeId>(rng.nextBelow(8));
                scatter.push_back(rng.nextBool(0.5)
                                      ? trace::makeBlockId(vol, nr)
                                      : randomBlock(rng, 0));
            }
            pair.observeBatch(scatter);
            break;
          }
          case 3: // hot block
            pair.observe(hot[rng.nextBelow(hot.size())]);
            break;
          case 4: { // hot burst: one block, up to 600 times
            const BlockId b = hot[rng.nextBelow(hot.size())];
            const std::vector<BlockId> burst(1 + rng.nextBelow(600), b);
            if (rng.nextBool(0.5)) {
                pair.observeBatch(burst);
            } else {
                for (const BlockId x : burst)
                    pair.observe(x);
            }
            break;
          }
          case 5:
          case 6:
          case 7: { // extent: aligned or not, straddling pages
            const auto len = static_cast<uint32_t>(1 + rng.nextBelow(40));
            const BlockId start = randomBlock(rng, len);
            std::vector<BlockId> run;
            for (uint32_t i = 0; i < len; ++i)
                run.push_back(start + i);
            if (rng.nextBool(0.7)) {
                pair.observeBatch(run);
            } else {
                for (const BlockId b : run)
                    pair.observe(b);
            }
            break;
          }
          case 8: { // hot extent, batched
            const BlockId start = hot[rng.nextBelow(hot.size())];
            const uint64_t len = 1 + rng.nextBelow(12);
            std::vector<BlockId> run;
            for (uint64_t i = 0; i < len; ++i)
                run.push_back(start + i);
            pair.observeBatch(run);
            break;
          }
          default: // epoch boundary, about every thousand ops
            if (rng.nextBool(0.01)) {
                max_count = std::max(max_count, pair.maxCount());
                pair.compare(label + " epoch " + std::to_string(epoch) +
                             " op " + std::to_string(op));
                pair.clear();
                ++epoch;
            }
            break;
        }
        if (op % 997 == 0)
            pair.compare(label + " op " + std::to_string(op));
        if (::testing::Test::HasFatalFailure())
            return;
    }
    pair.compare(label + " end");
    EXPECT_GE(epoch, 10) << label;
    EXPECT_GT(max_count, 255u) << label << ": no count passed 255";
}

TEST(AccessCounterDifferential, SeededStreamsAgreeViewForView)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        runStream(seed, 20000);
        if (HasFatalFailure())
            return;
    }
}

TEST(AccessCounterDifferential, HotCountsPassEveryThreshold)
{
    // One page, hammered: the largest threshold must see counts on
    // both sides of it, in both the scalar and the batched path.
    CounterPair pair;
    const BlockId page = trace::makeBlockId(3, 800);
    for (int i = 0; i < 300; ++i) {
        pair.observeBatch({page + 1, page + 2, page + 7});
        pair.observe(page + 1);
    }
    for (int i = 0; i < 50; ++i)
        pair.observe(page + 4);
    EXPECT_EQ(pair.maxCount(), 600u);
    pair.compare("hot page");
}

// ---- appliance level ----------------------------------------------

/** Passes a selector through, keeping every epoch's selection. */
class RecordingSelector : public core::DiscreteSelector
{
  public:
    RecordingSelector(std::unique_ptr<core::DiscreteSelector> inner,
                      std::vector<std::vector<BlockId>> &epochs)
        : inner_(std::move(inner)), epochs_(epochs)
    {
    }

    void observe(BlockId block) override { inner_->observe(block); }

    void
    observeBatch(std::span<const BlockId> blocks) override
    {
        inner_->observeBatch(blocks);
    }

    std::vector<BlockId>
    endOfEpoch() override
    {
        epochs_.push_back(inner_->endOfEpoch());
        return epochs_.back();
    }

    const char *name() const override { return inner_->name(); }

    void checkInvariants() const override { inner_->checkInvariants(); }

  private:
    std::unique_ptr<core::DiscreteSelector> inner_;
    std::vector<std::vector<BlockId>> &epochs_;
};

/** SieveStore-D's ADBA rule over the per-block reference counter. */
class ReferenceAdbaSelector : public core::DiscreteSelector
{
  public:
    explicit ReferenceAdbaSelector(uint64_t threshold)
        : threshold_(threshold)
    {
    }

    void observe(BlockId block) override { counts_.observe(block); }

    void
    observeBatch(std::span<const BlockId> blocks) override
    {
        counts_.observeBatch(blocks);
    }

    std::vector<BlockId>
    endOfEpoch() override
    {
        std::vector<BlockId> selected;
        for (const BlockCount &bc : counts_.countsAtLeast(threshold_))
            selected.push_back(bc.block);
        counts_.clear();
        return selected;
    }

    const char *name() const override { return "SieveStore-D"; }

  private:
    uint64_t threshold_;
    ReferenceAccessCounter counts_;
};

/** RandSieve-BlkD's sampling over the per-block reference counter. */
class ReferenceRandomBlockSelector : public core::DiscreteSelector
{
  public:
    ReferenceRandomBlockSelector(double fraction, uint64_t seed)
        : fraction_(fraction), rng_(seed)
    {
    }

    void observe(BlockId block) override { seen_.observe(block); }

    std::vector<BlockId>
    endOfEpoch() override
    {
        std::vector<BlockId> all = seen_.sortedBlocks();
        seen_.clear();
        size_t k = static_cast<size_t>(fraction_ *
                                       static_cast<double>(all.size()));
        if (k == 0 && !all.empty())
            k = 1;
        for (size_t i = 0; i < k; ++i) {
            const size_t j = i + static_cast<size_t>(
                                     rng_.nextBelow(all.size() - i));
            std::swap(all[i], all[j]);
        }
        all.resize(k);
        return all;
    }

    const char *name() const override { return "RandSieve-BlkD"; }

  private:
    double fraction_;
    Rng rng_;
    ReferenceAccessCounter seen_;
};

void
expectReportEq(const core::DailyReport &live,
               const core::DailyReport &ref, const std::string &where)
{
    EXPECT_EQ(live.accesses, ref.accesses) << where;
    EXPECT_EQ(live.read_accesses, ref.read_accesses) << where;
    EXPECT_EQ(live.hits, ref.hits) << where;
    EXPECT_EQ(live.read_hits, ref.read_hits) << where;
    EXPECT_EQ(live.write_hits, ref.write_hits) << where;
    EXPECT_EQ(live.allocation_write_blocks, ref.allocation_write_blocks)
        << where;
    EXPECT_EQ(live.batch_moved_blocks, ref.batch_moved_blocks) << where;
    EXPECT_EQ(live.ssd_read_ios, ref.ssd_read_ios) << where;
    EXPECT_EQ(live.ssd_write_ios, ref.ssd_write_ios) << where;
    EXPECT_EQ(live.ssd_alloc_ios, ref.ssd_alloc_ios) << where;
}

/** One synthetic week at test scale, replayed through `selector`. */
std::unique_ptr<core::Appliance>
replay(uint64_t seed, std::unique_ptr<core::DiscreteSelector> selector)
{
    trace::SyntheticConfig workload;
    workload.scale = 1.0 / 65536.0;
    workload.seed = seed;
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), workload);
    core::ApplianceConfig cfg;
    cfg.cache_blocks = workload.scaledBytes(16ULL << 30) / trace::kBlockBytes;
    cfg.track_occupancy = true;
    auto app = std::make_unique<core::Appliance>(cfg, std::move(selector));
    sim::runTrace(gen, *app);
    app->checkInvariants();
    return app;
}

TEST(AccessCounterDifferential, SelectorsMatchOracleEpochByEpoch)
{
    const uint64_t seeds[] = {0x51e5e5704eULL, 2, 0x5eedc0ffeeULL};
    for (const uint64_t seed : seeds) {
        for (const bool adba : {true, false}) {
            std::vector<std::vector<BlockId>> live_epochs, ref_epochs;
            std::unique_ptr<core::DiscreteSelector> live, ref;
            if (adba) {
                live = std::make_unique<core::AdbaSelector>(10);
                ref = std::make_unique<ReferenceAdbaSelector>(10);
            } else {
                live = std::make_unique<core::RandomBlockSelector>(0.01, 17);
                ref = std::make_unique<ReferenceRandomBlockSelector>(0.01, 17);
            }
            const auto live_app = replay(
                seed, std::make_unique<RecordingSelector>(std::move(live),
                                                          live_epochs));
            const auto ref_app = replay(
                seed, std::make_unique<RecordingSelector>(std::move(ref),
                                                          ref_epochs));
            const std::string label =
                std::string(live_app->policyName()) + " seed " +
                std::to_string(seed);

            ASSERT_GE(live_epochs.size(), 5u) << label;
            ASSERT_EQ(live_epochs.size(), ref_epochs.size()) << label;
            size_t selected = 0;
            for (size_t e = 0; e < live_epochs.size(); ++e) {
                ASSERT_EQ(live_epochs[e], ref_epochs[e])
                    << label << " epoch " << e;
                selected += live_epochs[e].size();
            }
            EXPECT_GT(selected, 0u) << label << ": nothing was selected";

            const auto &ld = live_app->daily();
            const auto &rd = ref_app->daily();
            ASSERT_EQ(ld.size(), rd.size()) << label;
            for (size_t d = 0; d < ld.size(); ++d)
                expectReportEq(ld[d], rd[d],
                               label + " day " + std::to_string(d));
            expectReportEq(live_app->totals(), ref_app->totals(),
                           label + " totals");
        }
    }
}

} // namespace

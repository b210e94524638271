/**
 * @file
 * Unit tests for the discrete (epoch-batched) sieve selectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "core/discrete.hpp"
#include "util/logging.hpp"

namespace {

using namespace sievestore::core;
using sievestore::trace::BlockId;
using sievestore::util::FatalError;

void
observeTimes(DiscreteSelector &sel, BlockId block, int times)
{
    for (int i = 0; i < times; ++i)
        sel.observe(block);
}

TEST(Adba, SelectsBlocksMeetingThreshold)
{
    AdbaSelector sel(10);
    observeTimes(sel, 1, 12);
    observeTimes(sel, 2, 10);
    observeTimes(sel, 3, 9);
    const auto chosen = sel.endOfEpoch();
    ASSERT_EQ(chosen.size(), 2u);
    // Descending count order: 1 (12) before 2 (10).
    EXPECT_EQ(chosen[0], 1u);
    EXPECT_EQ(chosen[1], 2u);
}

TEST(Adba, EpochBoundaryResetsCounts)
{
    AdbaSelector sel(5);
    observeTimes(sel, 1, 4);
    EXPECT_TRUE(sel.endOfEpoch().empty());
    // The 4 old observations must not carry into the new epoch.
    observeTimes(sel, 1, 4);
    EXPECT_TRUE(sel.endOfEpoch().empty());
    observeTimes(sel, 1, 5);
    EXPECT_EQ(sel.endOfEpoch().size(), 1u);
}

TEST(Adba, DiskBackendMatchesMemoryBackend)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("adba_" + std::to_string(::getpid()));
    {
        AdbaSelector mem(10);
        AdbaSelector disk(10, dir.string());
        for (BlockId b = 0; b < 50; ++b) {
            const int times = static_cast<int>(b % 20);
            observeTimes(mem, b, times);
            observeTimes(disk, b, times);
        }
        EXPECT_EQ(mem.endOfEpoch(), disk.endOfEpoch());
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(Adba, RejectsZeroThreshold)
{
    EXPECT_THROW(AdbaSelector(0), FatalError);
}

TEST(RandomBlock, SelectsRequestedFractionOfSeenBlocks)
{
    RandomBlockSelector sel(0.01, 42);
    for (BlockId b = 0; b < 10000; ++b)
        sel.observe(b);
    const auto chosen = sel.endOfEpoch();
    EXPECT_EQ(chosen.size(), 100u);
    for (BlockId b : chosen)
        EXPECT_LT(b, 10000u);
    // No duplicates.
    std::unordered_set<BlockId> uniq(chosen.begin(), chosen.end());
    EXPECT_EQ(uniq.size(), chosen.size());
}

TEST(RandomBlock, IgnoresAccessFrequency)
{
    // A block observed a million times is no likelier than a singleton:
    // the selector samples *blocks*, not accesses.
    RandomBlockSelector sel(0.5, 7);
    observeTimes(sel, 1, 1000);
    sel.observe(2);
    const auto chosen = sel.endOfEpoch();
    EXPECT_EQ(chosen.size(), 1u);
}

TEST(RandomBlock, DeterministicForSeed)
{
    auto run = [](uint64_t seed) {
        RandomBlockSelector sel(0.1, seed);
        for (BlockId b = 0; b < 1000; ++b)
            sel.observe(b);
        return sel.endOfEpoch();
    };
    auto a = run(5), b = run(5), c = run(6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(RandomBlock, AtLeastOneWhenAnySeen)
{
    RandomBlockSelector sel(0.001, 3);
    sel.observe(9);
    EXPECT_EQ(sel.endOfEpoch().size(), 1u);
}

TEST(OracleDay, ServesDaySetsInSequence)
{
    std::vector<std::vector<BlockId>> sets = {{1}, {2, 3}, {4}};
    OracleDaySelector sel(sets, 0);
    // The constructor is told the first day with traffic is day 0; the
    // first endOfEpoch closes day 0 and serves day 1.
    EXPECT_EQ(sel.endOfEpoch(), (std::vector<BlockId>{2, 3}));
    EXPECT_EQ(sel.endOfEpoch(), (std::vector<BlockId>{4}));
    // Past the last day: empty sets, no crash.
    EXPECT_TRUE(sel.endOfEpoch().empty());
    EXPECT_TRUE(sel.endOfEpoch().empty());
}

TEST(OracleDay, ObserveIsANoOp)
{
    OracleDaySelector sel({{1}, {2}}, 0);
    sel.observe(999);
    EXPECT_EQ(sel.endOfEpoch(), (std::vector<BlockId>{2}));
}

TEST(Selectors, ObserveBatchMatchesScalarObserve)
{
    // The counting selectors override observeBatch with the counter's
    // page-run path; it must select what N observe() calls select.
    auto makeAll = [] {
        std::vector<std::unique_ptr<DiscreteSelector>> all;
        all.push_back(std::make_unique<AdbaSelector>(3));
        all.push_back(std::make_unique<RandomBlockSelector>(0.2, 5));
        return all;
    };
    auto batched = makeAll();
    auto scalar = makeAll();
    for (int epoch = 0; epoch < 3; ++epoch) {
        for (BlockId start = 0; start < 400; start += 13) {
            // Unaligned runs of 1..20 blocks, overlapping hot ones.
            std::vector<BlockId> run;
            for (BlockId b = start; b < start + 1 + start % 20; ++b)
                run.push_back(b % 64);
            for (size_t i = 0; i < batched.size(); ++i) {
                batched[i]->observeBatch(run);
                for (const BlockId b : run)
                    scalar[i]->observe(b);
            }
        }
        for (size_t i = 0; i < batched.size(); ++i) {
            const auto chosen = batched[i]->endOfEpoch();
            EXPECT_FALSE(chosen.empty()) << batched[i]->name();
            EXPECT_EQ(chosen, scalar[i]->endOfEpoch())
                << batched[i]->name() << " epoch " << epoch;
        }
    }
}

TEST(Selectors, Names)
{
    EXPECT_STREQ(AdbaSelector(10).name(), "SieveStore-D");
    EXPECT_STREQ(RandomBlockSelector().name(), "RandSieve-BlkD");
    EXPECT_STREQ(OracleDaySelector({}, 0).name(), "Ideal");
}

} // namespace

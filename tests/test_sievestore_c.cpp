/**
 * @file
 * Unit tests for the SieveStore-C two-tier continuous sieve.
 */

#include <gtest/gtest.h>

#include "core/sievestore_c.hpp"
#include "util/logging.hpp"

namespace {

using namespace sievestore::core;
using sievestore::trace::BlockAccess;
using sievestore::trace::BlockId;
using sievestore::trace::Op;
using sievestore::util::FatalError;
using sievestore::util::TimeUs;

BlockAccess
missAt(BlockId block, TimeUs t)
{
    BlockAccess a;
    a.block = block;
    a.time = t;
    a.completion = t + 1000;
    a.op = Op::Read;
    return a;
}

SieveStoreCConfig
smallConfig()
{
    SieveStoreCConfig cfg;
    cfg.imct_slots = 1 << 16; // plenty of slots: no aliasing in tests
    cfg.t1 = 9;
    cfg.t2 = 4;
    return cfg;
}

TEST(SieveStoreC, AllocatesOnExactlyT1PlusT2Misses)
{
    SieveStoreCPolicy sieve(smallConfig());
    const BlockId b = 12345;
    // t1 = 9 misses to qualify past the IMCT, then t2 = 4 additional
    // misses in the MCT; the allocation fires on miss 13.
    for (uint64_t i = 1; i <= 12; ++i) {
        EXPECT_EQ(sieve.onMiss(missAt(b, 1000 * i)),
                  AllocDecision::Bypass)
            << "miss " << i;
    }
    EXPECT_EQ(sieve.onMiss(missAt(b, 13000)), AllocDecision::Allocate);
    EXPECT_EQ(sieve.allocations(), 1u);
    EXPECT_EQ(sieve.imctQualified(), 1u);
    // After allocation the MCT entry is retired.
    EXPECT_EQ(sieve.mct().size(), 0u);
}

TEST(SieveStoreC, SingletonsNeverAllocate)
{
    SieveStoreCPolicy sieve(smallConfig());
    for (BlockId b = 0; b < 10000; ++b)
        EXPECT_EQ(sieve.onMiss(missAt(b, b)), AllocDecision::Bypass);
    EXPECT_EQ(sieve.allocations(), 0u);
}

TEST(SieveStoreC, WindowExpiryDemandsRecency)
{
    // 8 misses, then a long silence: the IMCT progress evaporates and
    // the block must start over — the "recent window" requirement.
    SieveStoreCConfig cfg = smallConfig();
    SieveStoreCPolicy sieve(cfg);
    const BlockId b = 99;
    const TimeUs sub = cfg.window.subwindow_us;
    for (uint64_t i = 0; i < 8; ++i)
        sieve.onMiss(missAt(b, i));
    // Jump 5 subwindows ahead: everything stale.
    EXPECT_EQ(sieve.onMiss(missAt(b, 5 * sub)), AllocDecision::Bypass);
    EXPECT_EQ(sieve.imct().count(b, 5 * sub), 1u);
}

TEST(SieveStoreC, MctProgressAlsoExpires)
{
    SieveStoreCConfig cfg = smallConfig();
    cfg.prune_on_subwindow = true;
    SieveStoreCPolicy sieve(cfg);
    const BlockId b = 7;
    for (uint64_t i = 0; i < 11; ++i) // 9 to qualify + 2 in MCT
        sieve.onMiss(missAt(b, i));
    EXPECT_TRUE(sieve.mct().contains(b));
    const TimeUs far = 10 * cfg.window.subwindow_us;
    // A miss far in the future prunes the stale MCT entry and the
    // block re-enters through the IMCT.
    sieve.onMiss(missAt(b, far));
    EXPECT_FALSE(sieve.mct().contains(b));
    EXPECT_EQ(sieve.imct().count(b, far), 1u);
}

TEST(SieveStoreC, TwoBlocksProgressIndependentlyInMct)
{
    SieveStoreCPolicy sieve(smallConfig());
    // Qualify both past the IMCT.
    for (uint64_t i = 0; i < 9; ++i) {
        sieve.onMiss(missAt(1, i));
        sieve.onMiss(missAt(2, i));
    }
    ASSERT_TRUE(sieve.mct().contains(1));
    ASSERT_TRUE(sieve.mct().contains(2));
    // Only block 1 accumulates the additional t2 misses.
    sieve.onMiss(missAt(1, 100));
    sieve.onMiss(missAt(1, 101));
    sieve.onMiss(missAt(1, 102));
    EXPECT_EQ(sieve.onMiss(missAt(1, 103)), AllocDecision::Allocate);
    EXPECT_EQ(sieve.onMiss(missAt(2, 104)), AllocDecision::Bypass);
}

TEST(SieveStoreC, ImctOnlyAblationAllocatesAtCombinedThreshold)
{
    SieveStoreCConfig cfg = smallConfig();
    cfg.imct_only = true;
    SieveStoreCPolicy sieve(cfg);
    const BlockId b = 5;
    for (uint64_t i = 1; i <= 12; ++i)
        EXPECT_EQ(sieve.onMiss(missAt(b, i)), AllocDecision::Bypass);
    EXPECT_EQ(sieve.onMiss(missAt(b, 13)), AllocDecision::Allocate);
    EXPECT_STREQ(sieve.name(), "SieveStore-C/imct-only");
}

TEST(SieveStoreC, MctOnlyAblationIsExactButUnbounded)
{
    SieveStoreCConfig cfg = smallConfig();
    cfg.mct_only = true;
    SieveStoreCPolicy sieve(cfg);
    for (BlockId b = 0; b < 1000; ++b)
        sieve.onMiss(missAt(b, b));
    // Exact tracking of every missed block: the state explosion the
    // IMCT exists to avoid.
    EXPECT_EQ(sieve.mct().size(), 1000u);
    EXPECT_STREQ(sieve.name(), "SieveStore-C/mct-only");
}

TEST(SieveStoreC, T2ZeroAllocatesStraightFromImct)
{
    SieveStoreCConfig cfg = smallConfig();
    cfg.t2 = 0;
    SieveStoreCPolicy sieve(cfg);
    const BlockId b = 3;
    for (uint64_t i = 1; i <= 8; ++i)
        EXPECT_EQ(sieve.onMiss(missAt(b, i)), AllocDecision::Bypass);
    EXPECT_EQ(sieve.onMiss(missAt(b, 9)), AllocDecision::Allocate);
    EXPECT_EQ(sieve.mct().size(), 0u);
}

TEST(SieveStoreC, MetastateAccounting)
{
    SieveStoreCPolicy sieve(smallConfig());
    const uint64_t base = sieve.metastateBytes();
    EXPECT_GT(base, 0u);
    // Qualifying blocks grow the MCT share.
    for (uint64_t i = 0; i < 10; ++i)
        sieve.onMiss(missAt(1, i));
    EXPECT_GT(sieve.metastateBytes(), base);
}

TEST(SieveStoreC, RejectsContradictoryConfig)
{
    SieveStoreCConfig cfg = smallConfig();
    cfg.imct_only = true;
    cfg.mct_only = true;
    EXPECT_THROW(SieveStoreCPolicy{cfg}, FatalError);
    SieveStoreCConfig zeros = smallConfig();
    zeros.t1 = 0;
    zeros.t2 = 0;
    EXPECT_THROW(SieveStoreCPolicy{zeros}, FatalError);
}

TEST(SieveStoreC, RejectsBadConfig)
{
    // The window spec is validated where the counters are built.
    // Unchecked, a zero k or subwindow length would divide by zero on
    // the first miss, and a k past kMaxSubwindows would index past
    // the tallies.
    SieveStoreCConfig k0 = smallConfig();
    k0.window.k = 0;
    EXPECT_THROW(SieveStoreCPolicy{k0}, FatalError);
    SieveStoreCConfig k5 = smallConfig();
    k5.window.k = kMaxSubwindows + 1;
    EXPECT_THROW(SieveStoreCPolicy{k5}, FatalError);
    SieveStoreCConfig no_len = smallConfig();
    no_len.window.subwindow_us = 0;
    EXPECT_THROW(SieveStoreCPolicy{no_len}, FatalError);

    // Every threshold a counter is compared against stays within the
    // tallies' saturation point: t1 and t2 in the two-tier sieve, and
    // their sum in the one-tier ablations.
    SieveStoreCConfig t1 = smallConfig();
    t1.t1 = kMaxMissThreshold;
    EXPECT_NO_THROW(SieveStoreCPolicy{t1});
    t1.t1 = kMaxMissThreshold + 1;
    EXPECT_THROW(SieveStoreCPolicy{t1}, FatalError);
    SieveStoreCConfig t2 = smallConfig();
    t2.t2 = kMaxMissThreshold + 1;
    EXPECT_THROW(SieveStoreCPolicy{t2}, FatalError);
    for (const bool imct_only : {true, false}) {
        SieveStoreCConfig sum = smallConfig();
        sum.imct_only = imct_only;
        sum.mct_only = !imct_only;
        sum.t1 = 200;
        sum.t2 = kMaxMissThreshold - 200;
        EXPECT_NO_THROW(SieveStoreCPolicy{sum});
        sum.t2 = kMaxMissThreshold - 199;
        EXPECT_THROW(SieveStoreCPolicy{sum}, FatalError);
    }

    // A time whose subwindow index does not fit the counters' 32-bit
    // stamp is rejected, not wrapped into an old subwindow.
    SieveStoreCConfig fine = smallConfig();
    fine.window.subwindow_us = 1;
    SieveStoreCPolicy tiny(fine);
    EXPECT_NO_THROW(tiny.onMiss(missAt(1, kMaxSubwindowIndex)));
    EXPECT_THROW(tiny.onMiss(missAt(1, TimeUs{1} << 32)), FatalError);
    EXPECT_THROW(tiny.onMiss(missAt(1, kMaxSubwindowIndex + 1)),
                 FatalError);
}

TEST(SieveStoreC, PaperDefaults)
{
    SieveStoreCConfig cfg;
    EXPECT_EQ(cfg.t1, 9u);
    EXPECT_EQ(cfg.t2, 4u);
    EXPECT_EQ(cfg.window.k, 4u);
    EXPECT_EQ(cfg.window.subwindow_us,
              2 * sievestore::util::kUsPerHour);
}

} // namespace

/**
 * @file
 * Unit tests for the spec-driven sieve engine (core/sieve_spec.hpp):
 * the FlatSieve switch-dispatch engine must agree decision-for-
 * decision with the virtual AllocationPolicy reference it
 * devirtualized, for every continuous kind, on long randomized access
 * streams. Appliance-level report equality is covered separately by
 * test_flat_cache_differential.cpp; these tests pin the engine itself.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "core/sieve_spec.hpp"
#include "oracle/reference_replacement.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using core::AllocDecision;
using core::FlatSieve;
using core::SieveKind;
using core::SievePolicySpec;
using oracle::makeReferenceSievePolicy;
using util::Rng;

const SieveKind kAllSieveKinds[] = {SieveKind::Aod, SieveKind::Wmna,
                                    SieveKind::SieveStoreC,
                                    SieveKind::RandSieveC,
                                    SieveKind::Adaptive};
// The matrix below must widen whenever the enum does — the same
// tripwire as the dispatch-switch guard in core/sieve_spec.hpp.
static_assert(std::size(kAllSieveKinds) == core::kSieveKindCount,
              "add the new SieveKind to kAllSieveKinds");

SievePolicySpec
specFor(SieveKind kind)
{
    SievePolicySpec spec;
    spec.kind = kind;
    spec.rand_probability = 0.03;
    spec.rand_seed = 11;
    spec.sieve_c.imct_slots = 1 << 12;
    spec.adaptive.base = spec.sieve_c;
    spec.adaptive.imct_slots = 1 << 10;
    spec.adaptive.ghost_budget = 512;
    return spec;
}

trace::BlockAccess
randomAccess(Rng &rng, uint64_t t)
{
    trace::BlockAccess a;
    a.time = t;
    a.completion = t;
    a.block = rng.nextBelow(1 << 14);
    a.server = static_cast<trace::ServerId>(rng.nextBelow(4));
    a.op = rng.nextBool(0.7) ? trace::Op::Read : trace::Op::Write;
    return a;
}

// ---- decision parity ----------------------------------------------

/**
 * Drive FlatSieve and the reference policy with an identical stream
 * of onMiss/onHit calls spanning several simulated days and require
 * the same AllocDecision on every miss.
 */
TEST(SieveSpec, FlatSieveMatchesReferenceDecisionForDecision)
{
    for (const SieveKind kind : kAllSieveKinds) {
        const SievePolicySpec spec = specFor(kind);
        FlatSieve flat(spec);
        auto reference = makeReferenceSievePolicy(spec);
        const std::string label = core::sieveKindName(kind);

        Rng rng(7 + static_cast<uint64_t>(kind));
        uint64_t t = 0;
        for (int op = 0; op < 200000; ++op) {
            t += rng.nextBelow(4000000); // ~3 simulated days total
            const trace::BlockAccess a = randomAccess(rng, t);
            if (rng.nextBool(0.25)) {
                flat.onHit(a);
                reference->onHit(a);
            } else {
                const AllocDecision f = flat.onMiss(a);
                const AllocDecision r = reference->onMiss(a);
                ASSERT_EQ(f, r) << label << " op " << op << " block "
                                << a.block;
            }
        }
        flat.checkInvariants();
    }
}

// ---- identity plumbing --------------------------------------------

TEST(SieveSpec, NamesMatchReferenceEngine)
{
    for (const SieveKind kind : kAllSieveKinds) {
        const SievePolicySpec spec = specFor(kind);
        FlatSieve flat(spec);
        auto reference = makeReferenceSievePolicy(spec);
        EXPECT_STREQ(flat.name(), reference->name());
        EXPECT_EQ(flat.kind(), kind);
    }
}

TEST(SieveSpec, SieveCAblationNamesFlowThroughSpec)
{
    SievePolicySpec spec = specFor(SieveKind::SieveStoreC);
    spec.sieve_c.mct_only = true;
    FlatSieve mct_only(spec);
    auto mct_ref = makeReferenceSievePolicy(spec);
    EXPECT_STREQ(mct_only.name(), mct_ref->name());

    spec.sieve_c.mct_only = false;
    spec.sieve_c.imct_only = true;
    FlatSieve imct_only(spec);
    auto imct_ref = makeReferenceSievePolicy(spec);
    EXPECT_STREQ(imct_only.name(), imct_ref->name());
}

TEST(SieveSpec, MetastateMatchesReferenceEngine)
{
    for (const SieveKind kind : kAllSieveKinds) {
        const SievePolicySpec spec = specFor(kind);
        FlatSieve flat(spec);
        auto reference = makeReferenceSievePolicy(spec);
        EXPECT_EQ(flat.metastateBytes(), reference->metastateBytes())
            << core::sieveKindName(kind);
    }
}

TEST(SieveSpec, KindNamesAreStable)
{
    EXPECT_STREQ(core::sieveKindName(SieveKind::Aod), "AOD");
    EXPECT_STREQ(core::sieveKindName(SieveKind::Wmna), "WMNA");
    EXPECT_STREQ(core::sieveKindName(SieveKind::SieveStoreC),
                 "SieveStore-C");
    EXPECT_STREQ(core::sieveKindName(SieveKind::RandSieveC),
                 "RandSieve-C");
    EXPECT_STREQ(core::sieveKindName(SieveKind::Adaptive),
                 "SieveStore-C/adaptive");
}

// ---- stateless-kind semantics -------------------------------------

TEST(SieveSpec, AodAllocatesEveryMissWmnaOnlyReads)
{
    FlatSieve aod(specFor(SieveKind::Aod));
    FlatSieve wmna(specFor(SieveKind::Wmna));
    Rng rng(3);
    uint64_t t = 0;
    for (int op = 0; op < 1000; ++op) {
        t += rng.nextBelow(1000000);
        const trace::BlockAccess a = randomAccess(rng, t);
        EXPECT_EQ(aod.onMiss(a), AllocDecision::Allocate);
        EXPECT_EQ(wmna.onMiss(a), a.op == trace::Op::Read
                                      ? AllocDecision::Allocate
                                      : AllocDecision::Bypass);
    }
}

} // namespace

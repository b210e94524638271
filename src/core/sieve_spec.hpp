/**
 * @file
 * Value-type continuous-sieve engine: switch dispatch over the
 * built-in allocation policies.
 *
 * The paper's hot loop consults the sieve once per missed block access
 * (Section 3.2). The virtual AllocationPolicy hierarchy models that
 * cleanly but pays an indirect call per miss; after PR 3 flattened the
 * cache side, the sieve consultation became the last indirect branch
 * on the request path. SievePolicySpec names one of the continuous
 * policies (AOD, WMNA, SieveStore-C, RandSieve-C) as plain data —
 * exactly like cache::EvictionSpec names a replacement policy — and
 * FlatSieve executes it with a switch over the kind, holding the
 * policy state by value.
 *
 * Decision parity is by construction, not by reimplementation: the
 * stateful kinds (SieveStore-C, RandSieve-C) are embedded as value
 * members and consulted through qualified (statically bound) calls
 * into the *same* implementation the virtual engine runs.
 *
 * Like cache::BlockCache, FlatSieve has a custom mode: constructed
 * from an AllocationPolicy, it forwards every call to that virtual
 * policy. The appliance therefore holds one sieve whatever drives it.
 * Custom mode runs a policy no spec names (AutoTunedSievePolicy,
 * requested through ApplianceConfig::allocation exactly like
 * `replacement`) and the test oracles in tests/oracle/, against
 * which the differential suite proves the spec kinds bit-identical
 * per day and per field.
 */

#ifndef SIEVESTORE_CORE_SIEVE_SPEC_HPP
#define SIEVESTORE_CORE_SIEVE_SPEC_HPP

#include <memory>

#include "core/alloc_policy.hpp"
#include "core/auto_tune.hpp"
#include "core/rand_sieve.hpp"
#include "core/sievestore_c.hpp"
#include "util/flow_annotations.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace core {

/** Built-in continuous allocation policies (Section 3, Table 2). */
enum class SieveKind : uint8_t {
    /** Allocate-on-demand: every miss allocates. */
    Aod,
    /** Write-miss no-allocate: only read misses allocate. */
    Wmna,
    /** Two-tier hysteresis sieve (IMCT -> MCT, Section 3.3). */
    SieveStoreC,
    /** Allocate a random fraction of misses (Section 5.1). */
    RandSieveC,
    /** SieveStore-C with online (t1, t2) adaptation: shadow ghost
     * caches score neighboring settings each day and the sieve
     * switches to the winner at day close (Section 7's tuning
     * direction, taken online). */
    Adaptive,
};

/**
 * Exhaustiveness anchor for the flat sieve engine: every dispatch
 * switch over SieveKind is written without a default case, so
 * -Wswitch (an error in this tree) flags each switch a new kind has
 * not reached — and this count pins the enum itself.
 */
inline constexpr size_t kSieveKindCount = 5;
static_assert(static_cast<size_t>(SieveKind::Adaptive) + 1 ==
                  kSieveKindCount,
              "SieveKind grew: bump kSieveKindCount and wire the new "
              "kind through every dispatch switch (FlatSieve onMiss / "
              "onHit / prefetchMiss / onDayClose / name / "
              "metastateBytes / checkInvariants, sieveKindName) "
              "and the test oracle's factory in tests/oracle/");

/** Policy name as used in reports ("AOD", "SieveStore-C", ...). */
const char *sieveKindName(SieveKind kind);

/**
 * Plain-data selection of a continuous sieve, the allocation-side
 * analogue of cache::EvictionSpec. Fields beyond `kind` configure the
 * stateful kinds and are ignored by the stateless ones.
 */
struct SievePolicySpec
{
    SieveKind kind = SieveKind::Aod;
    /** RandSieve-C allocation probability. */
    double rand_probability = 0.01;
    /** RandSieve-C RNG seed. */
    uint64_t rand_seed = 7;
    /** SieveStore-C tunables (used only when kind == SieveStoreC). */
    SieveStoreCConfig sieve_c;
    /** Adaptive-sieve tunables (used only when kind == Adaptive). */
    AdaptiveSieveConfig adaptive;
};

/**
 * Switch-dispatch executor for a SievePolicySpec. All policy state
 * lives inline (by value), so a sieve consultation is a predictable
 * branch plus a direct call — no vtable load, no pointer chase — and
 * the stateless kinds (AOD, WMNA) fold into the caller entirely. The
 * custom mode costs every call one predictable branch, the `custom_`
 * test.
 */
class FlatSieve
{
  public:
    explicit FlatSieve(const SievePolicySpec &spec);

    /**
     * Custom-mode sieve driving a caller-supplied virtual policy (an
     * AllocationPolicy no spec names, or a test oracle). The spec
     * side stays at the default AOD kind, so the kind-gated hooks
     * (prefetchMiss) are no-ops without a custom test of their own.
     * A null policy is a configuration error (util::fatal).
     */
    explicit FlatSieve(std::unique_ptr<AllocationPolicy> policy);

    /** Consulted on every miss; see AllocationPolicy::onMiss.
     * Taint sink: the admit decision must never see measured data. */
    SIEVE_TAINT_SINK AllocDecision
    onMiss(const trace::BlockAccess &access)
    {
        if (custom_) [[unlikely]]
            return custom_->onMiss(access);
        switch (kind_) {
          case SieveKind::Aod:
            return AllocDecision::Allocate;
          case SieveKind::Wmna:
            return access.op == trace::Op::Read ? AllocDecision::Allocate
                                                : AllocDecision::Bypass;
          case SieveKind::SieveStoreC:
            // Qualified call: statically bound into the shared
            // implementation, so the flat engine cannot drift from the
            // reference policy's decisions.
            return sieve_c_.SieveStoreCPolicy::onMiss(access);
          case SieveKind::RandSieveC:
            return rand_.RandSieveCPolicy::onMiss(access);
          case SieveKind::Adaptive:
            return adaptive_.AdaptiveSievePolicy::onMiss(access);
        }
        util::fatal("FlatSieve: unknown sieve kind %d",
                    static_cast<int>(kind_));
    }

    /**
     * Hint that onMiss for this block is imminent (the sieve-prefetch
     * phase of the appliance's batched kernel). Only SieveStore-C has
     * table state worth pulling toward L1; the other kinds decide from
     * registers and ignore the hint. Pure — decisions are unchanged.
     * Taint sink like onMiss: it touches sieve metastate.
     */
    SIEVE_TAINT_SINK void
    prefetchMiss(trace::BlockId block) const
    {
        if (kind_ == SieveKind::SieveStoreC)
            sieve_c_.SieveStoreCPolicy::prefetchMiss(block);
        else if (kind_ == SieveKind::Adaptive)
            adaptive_.AdaptiveSievePolicy::prefetchMiss(block);
    }

    /**
     * Observe a hit. The adaptive sieve feeds hits to its shadow
     * candidates (ghost refreshes and captured-access counts); the
     * other built-in continuous policies keep no hit-side state
     * (SieveStore-C's windows advance on misses only), so for them
     * this is a no-op kept for interface symmetry with
     * AllocationPolicy.
     */
    SIEVE_TAINT_SINK void onHit(const trace::BlockAccess &access)
    {
        if (custom_) [[unlikely]]
            custom_->onHit(access);
        else if (kind_ == SieveKind::Adaptive)
            adaptive_.AdaptiveSievePolicy::onHit(access);
    }

    /**
     * Calendar-day close (Appliance::finishDay): the adaptive sieve's
     * epoch boundary, where shadow scores are compared and the
     * production thresholds may switch. No-op for the fixed kinds.
     */
    void onDayClose(int day)
    {
        if (custom_)
            custom_->onDayClose(day);
        else if (kind_ == SieveKind::Adaptive)
            adaptive_.AdaptiveSievePolicy::onDayClose(day);
    }

    /** Self-tuning observability (see AllocationPolicy::tuning). */
    std::optional<SieveTuning>
    tuning() const
    {
        if (custom_)
            return custom_->tuning();
        if (kind_ == SieveKind::Adaptive)
            return adaptive_.AdaptiveSievePolicy::tuning();
        return std::nullopt;
    }

    /** Matches the reference policy's name() for every kind. */
    const char *name() const;

    /** Metastate footprint; matches the reference policy per kind. */
    uint64_t metastateBytes() const;

    /**
     * Audit the active kind's invariants (delegates to the embedded
     * SieveStore-C state when that kind is selected, or to the custom
     * policy; the other kinds are stateless or opaque-RNG and have
     * nothing to audit). Aborts on violation.
     */
    void checkInvariants() const;

    /** Spec kind (AOD in custom mode). */
    SieveKind kind() const { return kind_; }

    /** The custom policy, or nullptr when the spec kind is active. */
    const AllocationPolicy *custom() const { return custom_.get(); }

    /** Embedded SieveStore-C state (valid when kind()==SieveStoreC). */
    const SieveStoreCPolicy &sieveC() const { return sieve_c_; }

    /** Embedded adaptive state (valid when kind()==Adaptive). */
    const AdaptiveSievePolicy &adaptive() const { return adaptive_; }

  private:
    SieveKind kind_;
    /** Non-null selects custom mode. Declared beside kind_ so the
     * custom test reads the cache line the dispatch reads anyway. */
    std::unique_ptr<AllocationPolicy> custom_;
    /** SieveStore-C state; 1-slot IMCT when another kind is active. */
    SieveStoreCPolicy sieve_c_;
    RandSieveCPolicy rand_;
    /** Adaptive-sieve state; 1-slot shadows when another kind is
     * active. */
    AdaptiveSievePolicy adaptive_;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_SIEVE_SPEC_HPP

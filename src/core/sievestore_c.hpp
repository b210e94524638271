/**
 * @file
 * SieveStore-C: continuous, hysteresis-based lazy allocation
 * (Section 3.3).
 *
 * Every miss first consults the imprecise tier: the block's IMCT slot
 * count must reach t1 (tuned to 9). Qualified blocks are admitted to
 * the precise MCT, where they must accrue t2 (tuned to 4) *additional*
 * misses inside the sliding window (W = 8 h, k = 4 subwindows) before a
 * frame is allocated. The two-tier split bounds the exact metastate (the
 * MCT only ever holds IMCT-qualified blocks) while the precise check
 * stops aliased low-reuse blocks from polluting the cache.
 */

#ifndef SIEVESTORE_CORE_SIEVESTORE_C_HPP
#define SIEVESTORE_CORE_SIEVESTORE_C_HPP

#include <memory>

#include "core/alloc_policy.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"

namespace sievestore {
namespace core {

/** SieveStore-C tunables. */
struct SieveStoreCConfig
{
    /** IMCT slot count, 8 bytes each. The paper budgets about 8 GB of
     * DRAM for IMCT + MCT combined; the benches' 450 M full-scale
     * slots take 3.6 GB of it. Scale with the trace. */
    size_t imct_slots = 1 << 22;
    /** IMCT (first-tier) miss threshold t1 (paper: 9). Every
     * threshold a counter is compared against must be at most
     * kMaxMissThreshold; see checkMissThreshold(). */
    uint32_t t1 = 9;
    /** MCT (second-tier) additional-miss threshold t2 (paper: 4). */
    uint32_t t2 = 4;
    /** Sliding window W split into k subwindows (paper: 8 h / 4). */
    WindowSpec window = WindowSpec::paperDefault();
    /** Hash seed for the IMCT. */
    uint64_t seed = 0;
    /**
     * MCT pruning cadence: prune on every subwindow boundary
     * ("periodically we prune the MCT to eliminate stale blocks").
     */
    bool prune_on_subwindow = true;

    /** One-tier ablation: bypass the IMCT, admit every miss to the MCT
     * directly (requires t1 misses + t2 misses in the MCT to keep the
     * total threshold comparable). */
    bool mct_only = false;
    /** One-tier ablation: allocate straight from the IMCT at t1 + t2
     * (reproduces the aliasing-pollution motivation). */
    bool imct_only = false;
};

/** The two-tier continuous sieve. */
class SieveStoreCPolicy : public AllocationPolicy
{
  public:
    explicit SieveStoreCPolicy(SieveStoreCConfig config = {});

    AllocDecision onMiss(const trace::BlockAccess &access) override;

    /**
     * Hint the tables an onMiss(access) for this block is imminent:
     * prefetch the block's IMCT slot and MCT home slot. Pure — no
     * counter moves — so the appliance's batched miss path can issue
     * it for a whole gathered chunk before the in-order decide phase.
     */
    void prefetchMiss(trace::BlockId block) const;

    const char *name() const override;

    uint64_t metastateBytes() const override;

    /**
     * Audit the two-tier sieve's bookkeeping: both tiers share the
     * configured window; each tier's structure is internally
     * consistent; in two-tier mode every MCT entry and every
     * allocation traces back to exactly one IMCT qualification
     * (mct.size() + allocations <= imctQualified()); and when pruning
     * on subwindow boundaries, no MCT entry is stale as of the last
     * prune. Aborts on violation.
     */
    void checkInvariants() const override;

    const Imct &imct() const { return imct_; }
    const Mct &mct() const { return mct_; }
    const SieveStoreCConfig &config() const { return cfg; }

    /** Misses admitted past the IMCT tier (qualified for the MCT). */
    uint64_t imctQualified() const { return imct_qualified; }
    /** Allocations granted. */
    uint64_t allocations() const { return allocated; }

    /**
     * Adjust the MCT threshold online (used by the Section 7
     * auto-tuner). Takes effect on the next miss; blocks already in
     * the MCT are judged against the new value.
     * @pre t2 <= kMaxMissThreshold, like every threshold set online
     */
    void setT2(uint32_t t2) { cfg.t2 = t2; }

    /** Adjust the IMCT threshold online (adaptive sieve). Takes effect
     * on the next miss; accumulated slot counts are kept, so a lowered
     * t1 admits already-warm blocks immediately. */
    void setT1(uint32_t t1) { cfg.t1 = t1; }

    /** Adjust both tier thresholds at once (adaptive-sieve epoch
     * switch). */
    void
    setThresholds(uint32_t t1, uint32_t t2)
    {
        cfg.t1 = t1;
        cfg.t2 = t2;
    }

  private:
    SieveStoreCConfig cfg;
    Imct imct_;
    Mct mct_;
    uint64_t last_prune_sub = 0;
    uint64_t imct_qualified = 0;
    uint64_t allocated = 0;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_SIEVESTORE_C_HPP

#include "core/sievestore_c.hpp"

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace core {

SieveStoreCPolicy::SieveStoreCPolicy(SieveStoreCConfig config)
    : cfg(config), imct_(config.imct_slots, config.window, config.seed),
      mct_(config.window)
{
    if (cfg.imct_only && cfg.mct_only)
        util::fatal("SieveStore-C: imct_only and mct_only are exclusive");
    if (cfg.t1 == 0 && cfg.t2 == 0)
        util::fatal("SieveStore-C: at least one threshold must be > 0");
    // Every threshold a counter is compared against must be decidable
    // on saturating tallies; the one-tier ablations compare one
    // counter against the sum.
    if (cfg.imct_only || cfg.mct_only) {
        checkMissThreshold(uint64_t{cfg.t1} + cfg.t2,
                           "SieveStore-C t1 + t2");
    } else {
        checkMissThreshold(cfg.t1, "SieveStore-C t1");
        checkMissThreshold(cfg.t2, "SieveStore-C t2");
    }
}

AllocDecision
SieveStoreCPolicy::onMiss(const trace::BlockAccess &access)
{
    const util::TimeUs t = access.time;

    if (cfg.prune_on_subwindow) {
        const uint64_t sub = cfg.window.subwindowOf(t);
        if (sub != last_prune_sub) {
            mct_.prune(t);
            last_prune_sub = sub;
        }
    }

    if (cfg.imct_only) {
        // Ablation: single aliased tier with the combined threshold.
        const uint32_t c = imct_.recordMiss(access.block, t);
        if (c >= cfg.t1 + cfg.t2) {
            ++allocated;
            return AllocDecision::Allocate;
        }
        return AllocDecision::Bypass;
    }

    if (cfg.mct_only) {
        // Ablation: exact counts for every missed block (state
        // explosion the IMCT exists to avoid).
        mct_.admit(access.block, t);
        const uint32_t c = mct_.recordMiss(access.block, t);
        if (c >= cfg.t1 + cfg.t2) {
            mct_.remove(access.block);
            ++allocated;
            return AllocDecision::Allocate;
        }
        return AllocDecision::Bypass;
    }

    // Two-tier sieve. Blocks already in the MCT accrue their
    // "additional" misses there; everyone else must first push their
    // (possibly aliased) IMCT slot past t1.
    if (const uint32_t c2 = mct_.recordIfTracked(access.block, t);
        c2 != 0) {
        if (c2 >= cfg.t2) {
            mct_.remove(access.block);
            ++allocated;
            return AllocDecision::Allocate;
        }
        return AllocDecision::Bypass;
    }

    const uint32_t c1 = imct_.recordMiss(access.block, t);
    if (c1 >= cfg.t1) {
        ++imct_qualified;
        mct_.admit(access.block, t);
        if (cfg.t2 == 0) {
            mct_.remove(access.block);
            ++allocated;
            return AllocDecision::Allocate;
        }
    }
    return AllocDecision::Bypass;
}

void
SieveStoreCPolicy::prefetchMiss(trace::BlockId block) const
{
    // Both tiers' lookups for this block are address-computable now;
    // onMiss itself will touch at most these lines plus the MCT probe
    // chain's continuation.
    if (!cfg.imct_only)
        mct_.prefetch(block);
    if (!cfg.mct_only)
        imct_.prefetch(block);
}

const char *
SieveStoreCPolicy::name() const
{
    if (cfg.imct_only)
        return "SieveStore-C/imct-only";
    if (cfg.mct_only)
        return "SieveStore-C/mct-only";
    return "SieveStore-C";
}

uint64_t
SieveStoreCPolicy::metastateBytes() const
{
    return imct_.memoryBytes() + mct_.memoryBytes();
}

void
SieveStoreCPolicy::checkInvariants() const
{
    SIEVE_CHECK(!(cfg.imct_only && cfg.mct_only));
    SIEVE_CHECK(cfg.t1 + cfg.t2 >= 1);
    SIEVE_CHECK(imct_.window().subwindow_us == cfg.window.subwindow_us &&
                    imct_.window().k == cfg.window.k,
                "IMCT window diverged from the configured window");
    SIEVE_CHECK(mct_.window().subwindow_us == cfg.window.subwindow_us &&
                    mct_.window().k == cfg.window.k,
                "MCT window diverged from the configured window");
    imct_.checkInvariants();
    mct_.checkInvariants();
    SIEVE_CHECK(metastateBytes() >= imct_.memoryBytes());
    if (!cfg.imct_only && !cfg.mct_only) {
        // Every MCT entry and every allocation consumed exactly one
        // IMCT qualification; entries leave only via allocation or
        // pruning. So the MCT can never duplicate (or exceed) the
        // promotion state the IMCT tier handed it.
        SIEVE_CHECK(mct_.size() + allocated <= imct_qualified,
                    "MCT holds %zu entries + %llu allocations but only "
                    "%llu IMCT qualifications occurred",
                    mct_.size(),
                    static_cast<unsigned long long>(allocated),
                    static_cast<unsigned long long>(imct_qualified));
    }
    if (cfg.prune_on_subwindow && last_prune_sub > 0) {
        // Prune correctness: nothing stale survived the last prune.
        const util::TimeUs pruned_at =
            last_prune_sub * cfg.window.subwindow_us;
        SIEVE_CHECK(mct_.staleEntries(pruned_at) == 0,
                    "%zu stale MCT entries survived the prune at "
                    "subwindow %llu",
                    mct_.staleEntries(pruned_at),
                    static_cast<unsigned long long>(last_prune_sub));
    }
}

} // namespace core
} // namespace sievestore

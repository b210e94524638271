/**
 * @file
 * Reference online adaptive sieve: five independent shadow candidates,
 * each a full SieveStoreCPolicy plus its own GhostCache.
 *
 * This is the straightforward construction of the adaptive sieve's
 * semantics, kept only as the oracle core::AdaptiveSievePolicy (one
 * fused, block-keyed shadow bank) is differenced against. Every
 * candidate prunes its own MCT eagerly on each subwindow change of
 * its shadow stream, probes its own ghost and MCT, and owns its own
 * IMCT. The production sieve, the neighborhood, the day-close argmax
 * and the re-centering are the same as the bank's, so the two must
 * agree on every candidate's per-epoch capture count, every switch
 * and every DailyReport.
 */

#ifndef SIEVESTORE_TESTS_ORACLE_REFERENCE_ADAPTIVE_SIEVE_HPP
#define SIEVESTORE_TESTS_ORACLE_REFERENCE_ADAPTIVE_SIEVE_HPP

#include <memory>
#include <utility>
#include <vector>

#include "cache/ghost_cache.hpp"
#include "core/auto_tune.hpp"
#include "core/sievestore_c.hpp"

namespace sievestore {
namespace oracle {

/** Per-candidate adaptive sieve (the differential oracle). */
class ReferenceAdaptiveSievePolicy : public core::AllocationPolicy
{
  public:
    explicit ReferenceAdaptiveSievePolicy(
        core::AdaptiveSieveConfig config = {});

    core::AllocDecision onMiss(const trace::BlockAccess &access) override;
    void onHit(const trace::BlockAccess &access) override;
    const char *name() const override { return "SieveStore-C/adaptive"; }
    uint64_t metastateBytes() const override;
    void onDayClose(int day) override;
    std::optional<core::SieveTuning> tuning() const override;
    void checkInvariants() const override;

    uint32_t currentT1() const { return t1_; }
    uint32_t currentT2() const { return t2_; }
    uint64_t switches() const { return switches_; }
    const std::vector<std::pair<uint32_t, uint32_t>> &
    history() const
    {
        return history_;
    }
    size_t candidateCount() const { return candidates_.size(); }
    uint64_t candidateCaptured(size_t i) const;
    std::pair<uint32_t, uint32_t> candidateSetting(size_t i) const;
    const core::SieveStoreCPolicy &production() const { return main_; }

  private:
    struct Candidate
    {
        uint32_t t1;
        uint32_t t2;
        core::SieveStoreCPolicy shadow;
        // sieve-lint: charged(summed by ReferenceAdaptiveSievePolicy::metastateBytes)
        cache::GhostCache ghost;
        uint64_t captured = 0;

        Candidate(const core::SieveStoreCConfig &shadow_cfg,
                  uint64_t ghost_budget)
            : t1(shadow_cfg.t1), t2(shadow_cfg.t2), shadow(shadow_cfg),
              ghost(ghost_budget)
        {
        }
    };

    void observe(const trace::BlockAccess &access);
    void recenter();
    uint32_t clampT1(int64_t t1) const;
    uint32_t clampT2(int64_t t2) const;

    core::AdaptiveSieveConfig cfg_;
    core::SieveStoreCPolicy main_;
    /** Index 0 is always the incumbent setting. */
    std::vector<std::unique_ptr<Candidate>> candidates_;
    uint32_t t1_;
    uint32_t t2_;
    uint64_t switches_ = 0;
    std::vector<std::pair<uint32_t, uint32_t>> history_;
};

} // namespace oracle
} // namespace sievestore

#endif // SIEVESTORE_TESTS_ORACLE_REFERENCE_ADAPTIVE_SIEVE_HPP

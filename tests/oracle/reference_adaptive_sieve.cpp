#include "oracle/reference_adaptive_sieve.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace oracle {

using core::AllocDecision;

ReferenceAdaptiveSievePolicy::ReferenceAdaptiveSievePolicy(
    core::AdaptiveSieveConfig config)
    : cfg_(config), main_(config.base)
{
    if (cfg_.min_t1 == 0 || cfg_.min_t1 > cfg_.max_t1)
        util::fatal("adaptive sieve t1 bounds must satisfy "
                    "1 <= min <= max");
    if (cfg_.min_t2 == 0 || cfg_.min_t2 > cfg_.max_t2)
        util::fatal("adaptive sieve t2 bounds must satisfy "
                    "1 <= min <= max");
    if (cfg_.ghost_budget == 0)
        util::fatal("adaptive sieve ghost budget must be positive");
    t1_ = clampT1(cfg_.base.t1);
    t2_ = clampT2(cfg_.base.t2);
    main_.setThresholds(t1_, t2_);

    // Five fixed slots: the incumbent plus its four one-step
    // neighbors. Clamping can make a neighbor coincide with the
    // incumbent; the duplicate is harmless because ties favor slot 0.
    core::SieveStoreCConfig shadow_cfg = cfg_.base;
    shadow_cfg.imct_slots = cfg_.imct_slots;
    for (size_t i = 0; i < 5; ++i)
        candidates_.push_back(std::make_unique<Candidate>(
            shadow_cfg, cfg_.ghost_budget));
    recenter();
}

uint32_t
ReferenceAdaptiveSievePolicy::clampT1(int64_t t1) const
{
    return static_cast<uint32_t>(std::clamp<int64_t>(
        t1, cfg_.min_t1, cfg_.max_t1));
}

uint32_t
ReferenceAdaptiveSievePolicy::clampT2(int64_t t2) const
{
    return static_cast<uint32_t>(std::clamp<int64_t>(
        t2, cfg_.min_t2, cfg_.max_t2));
}

void
ReferenceAdaptiveSievePolicy::recenter()
{
    const int64_t t1 = t1_, t2 = t2_;
    const int64_t s1 = cfg_.t1_step, s2 = cfg_.t2_step;
    const std::pair<uint32_t, uint32_t> settings[5] = {
        {t1_, t2_},
        {clampT1(t1 - s1), t2_},
        {clampT1(t1 + s1), t2_},
        {t1_, clampT2(t2 - s2)},
        {t1_, clampT2(t2 + s2)},
    };
    for (size_t i = 0; i < candidates_.size(); ++i) {
        Candidate &c = *candidates_[i];
        c.t1 = settings[i].first;
        c.t2 = settings[i].second;
        c.shadow.setThresholds(c.t1, c.t2);
        c.captured = 0;
    }
}

void
ReferenceAdaptiveSievePolicy::observe(const trace::BlockAccess &access)
{
    // Each candidate runs a mini cache simulation: its ghost is the
    // LRU residency set of blocks its shadow sieve would have
    // allocated. A ghost hit is an access that setting would have
    // captured (and refreshes recency); a ghost miss consults the
    // shadow sieve, which admits or rejects exactly like the
    // production algorithm at the candidate's thresholds.
    for (auto &cp : candidates_) {
        Candidate &c = *cp;
        if (c.ghost.contains(access.block)) {
            ++c.captured;
            c.ghost.insert(access.block); // refresh
        } else if (c.shadow.onMiss(access) == AllocDecision::Allocate) {
            c.ghost.insert(access.block);
        }
    }
}

AllocDecision
ReferenceAdaptiveSievePolicy::onMiss(const trace::BlockAccess &access)
{
    observe(access);
    return main_.onMiss(access);
}

void
ReferenceAdaptiveSievePolicy::onHit(const trace::BlockAccess &access)
{
    observe(access);
    main_.onHit(access);
}

void
ReferenceAdaptiveSievePolicy::onDayClose(int day)
{
    (void)day;
    // Strict > keeps ties (including a fully idle day, all counters
    // zero) with the incumbent.
    size_t best = 0;
    for (size_t i = 1; i < candidates_.size(); ++i)
        if (candidates_[i]->captured > candidates_[best]->captured)
            best = i;
    const Candidate &win = *candidates_[best];
    if (win.t1 != t1_ || win.t2 != t2_) {
        t1_ = win.t1;
        t2_ = win.t2;
        main_.setThresholds(t1_, t2_);
        ++switches_;
    }
    history_.emplace_back(t1_, t2_);
    recenter();
}

std::optional<core::SieveTuning>
ReferenceAdaptiveSievePolicy::tuning() const
{
    return core::SieveTuning{t1_, t2_, switches_};
}

uint64_t
ReferenceAdaptiveSievePolicy::metastateBytes() const
{
    uint64_t bytes = main_.metastateBytes();
    for (const auto &c : candidates_)
        bytes += c->shadow.metastateBytes() + c->ghost.memoryBytes();
    return bytes;
}

uint64_t
ReferenceAdaptiveSievePolicy::candidateCaptured(size_t i) const
{
    SIEVE_CHECK(i < candidates_.size(),
                "candidate index %zu out of %zu", i,
                candidates_.size());
    return candidates_[i]->captured;
}

std::pair<uint32_t, uint32_t>
ReferenceAdaptiveSievePolicy::candidateSetting(size_t i) const
{
    SIEVE_CHECK(i < candidates_.size(),
                "candidate index %zu out of %zu", i,
                candidates_.size());
    return {candidates_[i]->t1, candidates_[i]->t2};
}

void
ReferenceAdaptiveSievePolicy::checkInvariants() const
{
    main_.checkInvariants();
    for (const auto &c : candidates_) {
        c->shadow.checkInvariants();
        c->ghost.checkInvariants();
    }
}

} // namespace oracle
} // namespace sievestore

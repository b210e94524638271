#include "core/sieve_spec.hpp"

namespace sievestore {
namespace core {

namespace {

/**
 * SieveStore-C state for specs that do not select it: a 1-slot IMCT
 * so the embedded value member costs nothing when inactive.
 */
SieveStoreCConfig
inactiveSieveC()
{
    SieveStoreCConfig cfg;
    cfg.imct_slots = 1;
    return cfg;
}

/**
 * Adaptive-sieve state for specs that do not select it: 1-slot
 * production and shadow IMCTs and 1-entry ghosts, so the embedded
 * value member costs nothing when inactive.
 */
AdaptiveSieveConfig
inactiveAdaptive()
{
    AdaptiveSieveConfig cfg;
    cfg.base = inactiveSieveC();
    cfg.ghost_budget = 1;
    cfg.imct_slots = 1;
    return cfg;
}

} // namespace

const char *
sieveKindName(SieveKind kind)
{
    switch (kind) {
      case SieveKind::Aod: return "AOD";
      case SieveKind::Wmna: return "WMNA";
      case SieveKind::SieveStoreC: return "SieveStore-C";
      case SieveKind::RandSieveC: return "RandSieve-C";
      case SieveKind::Adaptive: return "SieveStore-C/adaptive";
    }
    util::fatal("sieveKindName: unknown sieve kind %d",
                static_cast<int>(kind));
}

FlatSieve::FlatSieve(const SievePolicySpec &spec)
    : kind_(spec.kind),
      sieve_c_(spec.kind == SieveKind::SieveStoreC ? spec.sieve_c
                                                   : inactiveSieveC()),
      rand_(spec.rand_probability, spec.rand_seed),
      adaptive_(spec.kind == SieveKind::Adaptive ? spec.adaptive
                                                 : inactiveAdaptive())
{
}

FlatSieve::FlatSieve(std::unique_ptr<AllocationPolicy> policy)
    : FlatSieve(SievePolicySpec{})
{
    if (!policy)
        util::fatal("custom sieve requires an allocation policy");
    custom_ = std::move(policy);
}

const char *
FlatSieve::name() const
{
    if (custom_)
        return custom_->name();
    // SieveStore-C owns its name so the ablation suffixes
    // ("/imct-only", "/mct-only") stay in one place.
    if (kind_ == SieveKind::SieveStoreC)
        return sieve_c_.SieveStoreCPolicy::name();
    if (kind_ == SieveKind::Adaptive)
        return adaptive_.AdaptiveSievePolicy::name();
    return sieveKindName(kind_);
}

uint64_t
FlatSieve::metastateBytes() const
{
    if (custom_)
        return custom_->metastateBytes();
    // AOD/WMNA/RandSieve-C report zero like their reference policies;
    // the inactive embedded SieveStore-C state must not leak into
    // cost reports.
    if (kind_ == SieveKind::SieveStoreC)
        return sieve_c_.SieveStoreCPolicy::metastateBytes();
    if (kind_ == SieveKind::Adaptive)
        return adaptive_.AdaptiveSievePolicy::metastateBytes();
    return 0;
}

void
FlatSieve::checkInvariants() const
{
    if (custom_)
        custom_->checkInvariants();
    else if (kind_ == SieveKind::SieveStoreC)
        sieve_c_.SieveStoreCPolicy::checkInvariants();
    else if (kind_ == SieveKind::Adaptive)
        adaptive_.AdaptiveSievePolicy::checkInvariants();
}

} // namespace core
} // namespace sievestore

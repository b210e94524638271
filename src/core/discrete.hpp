/**
 * @file
 * Discrete (epoch-batched) sieve selectors (Section 3.2).
 *
 * SieveStore-D performs no online allocation: every access is observed
 * (logged), and at each epoch boundary the selector returns the block
 * set to batch-allocate for the next epoch. The paper's variant selects
 * by access count (ADBA: access-count based discrete batch-allocation,
 * threshold 10/day); the evaluation also uses a randomized selector
 * (RandSieve-BlkD) and the per-day oracle (top 1 % of blocks).
 */

#ifndef SIEVESTORE_CORE_DISCRETE_HPP
#define SIEVESTORE_CORE_DISCRETE_HPP

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/access_counter.hpp"
#include "analysis/access_log.hpp"
#include "trace/request.hpp"
#include "util/random.hpp"

namespace sievestore {
namespace core {

/** Epoch-batched allocation selector. */
class DiscreteSelector
{
  public:
    virtual ~DiscreteSelector() = default;

    /** Observe one access to `block` during the current epoch. */
    virtual void observe(trace::BlockId block) = 0;

    /**
     * Observe one access to each block of a run from one request.
     * Semantically exactly N observe() calls in order (the default is
     * that loop); the counting selectors override it to run the
     * counter's page-run batch path. The appliance's request path
     * hands each probe chunk's block ids through here.
     */
    virtual void
    observeBatch(std::span<const trace::BlockId> blocks)
    {
        for (const trace::BlockId block : blocks)
            observe(block);
    }

    /**
     * Close the epoch: return the blocks to batch-allocate for the next
     * epoch (descending priority; the cache truncates to capacity) and
     * reset the selector's epoch state.
     */
    virtual std::vector<trace::BlockId> endOfEpoch() = 0;

    virtual const char *name() const = 0;

    /** Approximate in-memory metastate footprint
     * (util/footprint.hpp convention; excludes on-disk logs). */
    virtual uint64_t metastateBytes() const { return 0; }

    /** Audit selector invariants; aborts on violation (default: none). */
    virtual void checkInvariants() const {}
};

/**
 * SieveStore-D's ADBA selector: blocks whose epoch access count meets
 * the threshold (paper: 10). Counting backend is either the
 * map-reduce-style on-disk AccessLog — the mechanism the paper
 * describes, with metastate never on the access critical path — or an
 * in-memory counter for fast simulation sweeps.
 */
class AdbaSelector : public DiscreteSelector
{
  public:
    /** In-memory counting backend. */
    explicit AdbaSelector(uint64_t threshold = 10);

    /** Disk-backed counting backend (the paper's log + reduce). */
    AdbaSelector(uint64_t threshold, const std::string &log_directory,
                 analysis::AccessLogConfig log_config = {});

    void observe(trace::BlockId block) override;
    void observeBatch(std::span<const trace::BlockId> blocks) override;
    std::vector<trace::BlockId> endOfEpoch() override;
    const char *name() const override { return "SieveStore-D"; }
    uint64_t metastateBytes() const override;
    void checkInvariants() const override;

    uint64_t threshold() const { return threshold_; }

  private:
    uint64_t threshold_;
    std::unique_ptr<analysis::AccessLog> disk_log;
    /** In-memory backend: page-keyed per-block epoch counts. */
    analysis::AccessCounter mem_counts;
};

/** RandSieve-BlkD: a uniformly random 1 % of the epoch's blocks. */
class RandomBlockSelector : public DiscreteSelector
{
  public:
    explicit RandomBlockSelector(double fraction = 0.01,
                                 uint64_t seed = 11);

    void observe(trace::BlockId block) override;
    void observeBatch(std::span<const trace::BlockId> blocks) override;
    std::vector<trace::BlockId> endOfEpoch() override;
    const char *name() const override { return "RandSieve-BlkD"; }
    uint64_t metastateBytes() const override;
    void checkInvariants() const override;

  private:
    double fraction;
    util::Rng rng;
    /** Epoch's distinct-block set (counts unused). */
    analysis::AccessCounter seen;
};

/**
 * The per-day oracle (Section 5.1's "ideal"): holds each day's top 1 %
 * of blocks *during that day*, which requires future knowledge. The
 * per-day sets come from a profiling pass over the trace
 * (sim::perDayTopBlocks); the first day's set must be preloaded into
 * the appliance (Appliance::preload) before replay.
 */
class OracleDaySelector : public DiscreteSelector
{
  public:
    /**
     * @param day_sets  day_sets[d] = blocks to hold during calendar
     *                  day d
     * @param first_day calendar day of the first endOfEpoch() call
     *                  (i.e. the first day with traffic)
     */
    OracleDaySelector(std::vector<std::vector<trace::BlockId>> day_sets,
                      int first_day);

    void observe(trace::BlockId block) override;
    std::vector<trace::BlockId> endOfEpoch() override;
    const char *name() const override { return "Ideal"; }

  private:
    std::vector<std::vector<trace::BlockId>> day_sets;
    int next_day;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_DISCRETE_HPP

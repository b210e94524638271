/**
 * @file
 * Perfect Miss Count Table (MCT), the second sieve tier (Section 3.3).
 *
 * A hash table of per-block windowed miss counters, populated only for
 * blocks that already passed the IMCT threshold — the population the
 * IMCT keeps small enough for exact tracking to be affordable.
 * "Periodically we prune the MCT to eliminate stale blocks": prune()
 * drops every entry whose window has fully expired; the appliance calls
 * it on subwindow boundaries.
 */

#ifndef SIEVESTORE_CORE_MCT_HPP
#define SIEVESTORE_CORE_MCT_HPP

#include <cstdint>
#include <span>

#include "core/windowed_counter.hpp"
#include "trace/block.hpp"
#include "util/flat_index.hpp"

namespace sievestore {
namespace core {

/** Exact per-block windowed miss counts for IMCT-qualified blocks. */
class Mct
{
  public:
    /** @param window as for Imct: validated with util::fatal. */
    explicit Mct(WindowSpec window);

    /** True if the block is currently tracked. */
    bool contains(trace::BlockId block) const;

    /** Start pulling the block's table line toward L1 (pure hint). */
    void prefetch(trace::BlockId block) const { entries.prefetch(block); }

    /**
     * Begin tracking a block (first miss past the IMCT threshold) as
     * of time t. The count starts at zero — the paper requires "an
     * additional minimum number of misses" at the MCT tier — but the
     * entry's window is live from t, so pruning cannot reap it before
     * it has had a full window to accrue them. No-op if already
     * tracked.
     */
    void admit(trace::BlockId block, util::TimeUs t);

    /**
     * Record a miss of a tracked block.
     * @return the block's windowed miss count including this miss
     * @pre contains(block)
     */
    uint32_t recordMiss(trace::BlockId block, util::TimeUs t);

    /**
     * Record a miss if the block is tracked, in one probe (contains()
     * followed by recordMiss() costs two). A recorded miss always
     * counts, so 0 unambiguously means untracked.
     * @return the block's windowed miss count including this miss, or
     *         0 (and no change) if the block is untracked
     */
    uint32_t recordIfTracked(trace::BlockId block, util::TimeUs t);

    /** Windowed count for a tracked block (0 if untracked). */
    uint32_t count(trace::BlockId block, util::TimeUs t) const;

    /** Stop tracking a block (after it is allocated). */
    void remove(trace::BlockId block);

    /** Drop all entries whose window has fully expired as of t. */
    void prune(util::TimeUs t);

    size_t size() const { return entries.size(); }

    /** Metastate footprint (util/footprint.hpp convention). */
    uint64_t memoryBytes() const;

    /**
     * Number of entries whose window has fully expired as of t.
     * Audit hook for prune correctness: immediately after prune(t)
     * this must be zero.
     */
    size_t staleEntries(util::TimeUs t) const;

    /**
     * Audit structural invariants: every entry's counter is internally
     * consistent against the shared window spec. Aborts on violation.
     */
    void checkInvariants() const;

    void clear() { entries.clear(); }

    const WindowSpec &window() const { return spec; }

  private:
    /** Flat block index (util/flat_index.hpp): one probe per miss,
     * tombstone-free erase keeps prune() from degrading probes. */
    util::FlatIndex<WindowedCounter> entries;
    WindowSpec spec;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_MCT_HPP

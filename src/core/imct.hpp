/**
 * @file
 * Imprecise Miss Count Table (IMCT), the first sieve tier (Section 3.3).
 *
 * A fixed-size array of windowed counters indexed by a hash of the
 * block address. The block-address space is vastly larger than the
 * table, so the mapping is many-to-one and counts may be aliased —
 * that is the point: the IMCT bounds metastate for the huge population
 * of uncached blocks, at the cost of some low-reuse blocks
 * "piggy-backing on the miss-counts of more popular blocks". The
 * precise MCT behind it (mct.hpp) cleans up what aliasing lets through.
 */

#ifndef SIEVESTORE_CORE_IMCT_HPP
#define SIEVESTORE_CORE_IMCT_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/windowed_counter.hpp"
#include "trace/block.hpp"

namespace sievestore {
namespace core {

/** Fixed-size, hash-indexed, aliased miss-count table. */
class Imct
{
  public:
    /**
     * @param slots  number of counter slots (power of two not required)
     * @param window window configuration shared with the MCT;
     *               rejected with util::fatal unless
     *               WindowSpec::validate() passes
     * @param seed   hash seed (decorrelates tables in multi-instance
     *               deployments)
     */
    Imct(size_t slots, WindowSpec window, uint64_t seed = 0);

    /**
     * Record a miss of `block` at time t.
     * @return the slot's windowed miss count including this miss
     */
    uint32_t recordMiss(trace::BlockId block, util::TimeUs t);

    /** Windowed count currently associated with `block`'s slot. */
    uint32_t count(trace::BlockId block, util::TimeUs t) const;

    /** Slot index a block maps to (exposed for aliasing tests). */
    size_t slotOf(trace::BlockId block) const;

    /**
     * Start pulling the block's counter slot toward L1 (pure hint).
     * The IMCT is a direct-mapped array, so unlike FlatIndex there is
     * no probe chain — one line covers the whole upcoming access.
     */
    void prefetch(trace::BlockId block) const;

    size_t slots() const { return table.size(); }

    /** Metastate footprint (util/footprint.hpp convention). */
    uint64_t memoryBytes() const;

    /** Zero every slot. */
    void clear();

    /**
     * Audit structural invariants: at least one slot, a sane window
     * spec, every slot's counter internally consistent, and the
     * block -> slot mapping always in range (the IMCT's aliasing
     * bound: no block can escape the table). Aborts on violation.
     */
    void checkInvariants() const;

    const WindowSpec &window() const { return spec; }

  private:
    std::vector<WindowedCounter> table;
    WindowSpec spec;
    uint64_t seed;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_IMCT_HPP

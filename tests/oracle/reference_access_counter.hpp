/**
 * @file
 * Reference epoch access counter: the per-block layout (one
 * util::FlatIndex<uint64_t> slot per 512-byte block) that
 * analysis::AccessCounter re-keyed by 4 KB page.
 *
 * Kept only as the oracle the page-keyed counter is differenced
 * against, view for view. Its counts are 64-bit and never saturate;
 * the page-keyed counts saturate at UINT32_MAX, which no test stream
 * and no real day reaches.
 */

#ifndef SIEVESTORE_TESTS_ORACLE_REFERENCE_ACCESS_COUNTER_HPP
#define SIEVESTORE_TESTS_ORACLE_REFERENCE_ACCESS_COUNTER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/access_counter.hpp"
#include "trace/block.hpp"
#include "util/flat_index.hpp"

namespace sievestore {
namespace oracle {

/** Per-block access counter: one flat-index probe per observation. */
class ReferenceAccessCounter
{
  public:
    /** Record one access to `block`. */
    void observe(trace::BlockId block);

    /** Record one access to each block, every home slot prefetched
     * before the first bump. */
    void observeBatch(std::span<const trace::BlockId> blocks);

    /** Access count of `block` (0 if never observed). */
    uint64_t count(trace::BlockId block) const;

    /** Distinct blocks observed this epoch. */
    size_t uniqueBlocks() const { return counts_.size(); }
    bool empty() const { return counts_.empty(); }

    /** Sum of all counts. */
    uint64_t totalAccesses() const;

    /** All (block, count) pairs, descending count / ascending block. */
    std::vector<analysis::BlockCount> sortedByCount() const;

    /** Pairs with count >= threshold, same deterministic order. */
    std::vector<analysis::BlockCount> countsAtLeast(uint64_t threshold) const;

    /** Observed blocks in ascending BlockId order. */
    std::vector<trace::BlockId> sortedBlocks() const;

    /** Drop all counts but keep the slot array (epoch boundary). */
    void clear() { counts_.clear(); }

    /** Metastate footprint (util/footprint.hpp convention). */
    uint64_t memoryBytes() const { return counts_.memoryBytes(); }

    /** Audit the underlying table; aborts on violation. */
    void checkInvariants() const { counts_.checkInvariants(); }

  private:
    util::FlatIndex<uint64_t> counts_;
};

} // namespace oracle
} // namespace sievestore

#endif // SIEVESTORE_TESTS_ORACLE_REFERENCE_ACCESS_COUNTER_HPP

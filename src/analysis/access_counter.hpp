/**
 * @file
 * In-memory per-block access counting.
 *
 * The trace characterization of Section 2 and the ideal/discrete sieves
 * of Section 3 all reduce a day of accesses to per-block counts. This is
 * the in-memory counter; the file-backed, map-reduce-like counter that
 * SieveStore-D's appliance would really run is in access_log.hpp.
 */

#ifndef SIEVESTORE_ANALYSIS_ACCESS_COUNTER_HPP
#define SIEVESTORE_ANALYSIS_ACCESS_COUNTER_HPP

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "trace/request.hpp"
#include "util/flat_index.hpp"

namespace sievestore {
namespace analysis {

/** Per-block access counts, keyed by BlockId. */
using BlockCounts = std::unordered_map<trace::BlockId, uint64_t>;

/** A (block, count) pair, the unit the sieving reductions emit. */
struct BlockCount
{
    trace::BlockId block;
    uint64_t count;
};

/** Count the per-block accesses of a batch of requests. */
BlockCounts countBlockAccesses(const std::vector<trace::Request> &requests);

/** Total accesses recorded in a count map. */
uint64_t totalAccesses(const BlockCounts &counts);

/**
 * Flatten a count map, sorted by descending count (ties broken by
 * BlockId for determinism).
 */
std::vector<BlockCount> sortedByCount(const BlockCounts &counts);

/** Sort (block, count) pairs descending by count, ascending BlockId. */
void sortDescendingByCount(std::vector<BlockCount> &counts);

/**
 * One saturating count step: UINT32_MAX stays UINT32_MAX instead of
 * wrapping to zero, where a counted block would vanish from its epoch.
 * No real count gets there: a full-scale day is about 1.3 G block
 * accesses (685 GB of 512-byte blocks), a third of the cap, and that
 * is the whole ensemble's traffic, not one block's.
 */
constexpr uint32_t
saturatingIncrement(uint32_t count)
{
    return count == UINT32_MAX ? count : count + 1;
}

/**
 * Per-block epoch access counter, keyed by 4 KB page on the flat block
 * index (util/flat_index.hpp). This is the counting state of the
 * discrete selectors (SieveStore-D's in-memory ADBA backend and the
 * ablation selectors).
 *
 * Each slot is one page (its trace::pageStart BlockId) holding the
 * eight per-block counts inline, so a request's contiguous blocks,
 * which share a page eight at a time, cost one probe per page rather
 * than one per block. The reads expand pages back to blocks and skip
 * zero counts, so every view is exactly what a per-block table would
 * give. clear() keeps the slot array, so epoch boundaries do not
 * re-grow from scratch.
 */
class AccessCounter
{
  public:
    /** Record one access to `block`. */
    void observe(trace::BlockId block);

    /**
     * Record one access to each block. Each run of consecutive blocks
     * that share a page costs one probe, and every run's home slot is
     * prefetched before the first probe issues, hiding the table's
     * DRAM latency across the batch. Counts are commutative, so the
     * result is identical to observing in any order.
     */
    void observeBatch(std::span<const trace::BlockId> blocks);

    /** Access count of `block` (0 if never observed). */
    uint64_t count(trace::BlockId block) const;

    /** Distinct blocks observed this epoch. */
    size_t uniqueBlocks() const { return blocks_; }
    bool empty() const { return blocks_ == 0; }

    /** Sum of all counts. */
    uint64_t totalAccesses() const;

    /** All (block, count) pairs, descending count / ascending block. */
    std::vector<BlockCount> sortedByCount() const;

    /** Pairs with count >= threshold, same deterministic order. */
    std::vector<BlockCount> countsAtLeast(uint64_t threshold) const;

    /** Observed blocks in ascending BlockId order. */
    std::vector<trace::BlockId> sortedBlocks() const;

    /** Drop all counts but keep the slot array (epoch boundary). */
    void
    clear()
    {
        pages_.clear();
        blocks_ = 0;
    }

    /** Metastate footprint (util/footprint.hpp convention). */
    uint64_t memoryBytes() const { return pages_.memoryBytes(); }

    /**
     * Audit the table, then the page layout: every key is
     * page-aligned, no stored page is all-zero, and the distinct-block
     * tally equals the number of nonzero counts. Aborts on violation.
     */
    void checkInvariants() const;

  private:
    /** The per-block counts of one 4 KB page, by block within it. */
    struct PageCounts
    {
        std::array<uint32_t, trace::kBlocksPerPage> blocks;
    };

    /** The counts of `block`'s page, inserted zeroed if absent. */
    PageCounts &pageCounts(trace::BlockId block);
    /** Count one access to `block` within its page's counts. */
    void bump(PageCounts &page, trace::BlockId block);
    /** Visit every nonzero count as fn(block, count). */
    template <typename Fn> void forEachBlock(Fn &&fn) const;

    util::FlatIndex<PageCounts> pages_;
    /** Nonzero counts across all pages: the distinct-block tally. */
    size_t blocks_ = 0;
};

} // namespace analysis
} // namespace sievestore

#endif // SIEVESTORE_ANALYSIS_ACCESS_COUNTER_HPP

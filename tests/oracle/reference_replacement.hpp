/**
 * @file
 * Reference replacement policies: the node-based (std::list +
 * unordered_map) implementations of every built-in EvictionKind,
 * plus the reference continuous sieves.
 *
 * The production cache runs the built-in kinds flat inside
 * cache::BlockCache, with per-block state inline in the shared block
 * index (util/flat_index.hpp); the production sieve runs them by
 * switch dispatch inside core::FlatSieve. These classes are the
 * straightforward constructions of the same semantics, kept only as
 * the oracles those engines are differenced against. They plug into
 * BlockCache's and FlatSieve's custom modes (directly, or through
 * ApplianceConfig::replacement / ::allocation), so a differential
 * runs both engines behind one interface.
 */

#ifndef SIEVESTORE_TESTS_ORACLE_REFERENCE_REPLACEMENT_HPP
#define SIEVESTORE_TESTS_ORACLE_REFERENCE_REPLACEMENT_HPP

#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/ghost_cache.hpp"
#include "cache/replacement.hpp"
#include "core/alloc_policy.hpp"
#include "core/sieve_spec.hpp"
#include "trace/block.hpp"
#include "util/count_min.hpp"
#include "util/random.hpp"

namespace sievestore {
namespace oracle {

/** Least-recently-used, node-based (the paper's common policy). */
class ReferenceLruPolicy : public cache::ReplacementPolicy
{
  public:
    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    const char *name() const override { return "LRU"; }
    size_t size() const override { return where.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return where.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

  protected:
    /** Recency list, most-recent at front. */
    std::list<trace::BlockId> order;
    std::unordered_map<trace::BlockId, std::list<trace::BlockId>::iterator>
        where;
};

/** First-in-first-out: insertion order, hits do not promote. */
class ReferenceFifoPolicy : public ReferenceLruPolicy
{
  public:
    void onAccess(trace::BlockId block) override;
    const char *name() const override { return "FIFO"; }
};

/** Uniform-random victim. */
class ReferenceRandomPolicy : public cache::ReplacementPolicy
{
  public:
    explicit ReferenceRandomPolicy(uint64_t seed = 1);

    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    const char *name() const override { return "Random"; }
    size_t size() const override { return pool.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return index.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

  private:
    std::vector<trace::BlockId> pool;
    std::unordered_map<trace::BlockId, size_t> index;
    util::Rng rng;
};

/**
 * Least-frequently-used with FIFO tie-break (reference counting): a
 * linear scan over every resident block per victim.
 */
class ReferenceLfuPolicy : public cache::ReplacementPolicy
{
  public:
    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    const char *name() const override { return "LFU"; }
    size_t size() const override { return entries.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return entries.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

  private:
    struct Entry
    {
        uint64_t count;
        uint64_t sequence;
    };
    std::unordered_map<trace::BlockId, Entry> entries;
    uint64_t next_sequence = 0;
};

/**
 * CLOCK (second-chance): blocks sit on a circular list with a
 * reference bit; the hand clears bits until it finds an unreferenced
 * victim.
 */
class ReferenceClockPolicy : public cache::ReplacementPolicy
{
  public:
    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    const char *name() const override { return "CLOCK"; }
    size_t size() const override { return where.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return where.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

  private:
    struct Entry
    {
        trace::BlockId block;
        bool referenced;
    };
    /** Circular buffer of entries; erased slots are tombstoned. */
    std::list<Entry> ring;
    std::unordered_map<trace::BlockId, std::list<Entry>::iterator>
        where;
    std::list<Entry>::iterator hand = ring.end();
};

/**
 * SIEVE (NSDI'24). A FIFO queue with one visited bit per block and a
 * hand that sweeps from the tail (oldest) toward the head: a visited
 * block gets its bit cleared and survives, the first unvisited block
 * is the victim, and the hand parks just past it for the next
 * eviction. Hits only set the bit — no list surgery — which is what
 * makes the flat engine's batch path payload-only.
 */
class ReferenceSievePolicy : public cache::ReplacementPolicy
{
  public:
    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    const char *name() const override { return "SIEVE"; }
    size_t size() const override { return where.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return where.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

  private:
    struct Entry
    {
        std::list<trace::BlockId>::iterator it;
        bool visited;
    };
    /** FIFO queue, newest at front. */
    std::list<trace::BlockId> queue;
    std::unordered_map<trace::BlockId, Entry> where;
    /** Sweep position; end() means "unset / wrapped past the head",
     * i.e. the next sweep starts from the tail. */
    std::list<trace::BlockId>::iterator hand = queue.end();

    /** One step toward the head; wraps to end() past the head. */
    std::list<trace::BlockId>::iterator
    stepTowardHead(std::list<trace::BlockId>::iterator it)
    {
        return it == queue.begin() ? queue.end() : std::prev(it);
    }
};

/**
 * ARC (FAST'03). Residents split into T1 (seen once) and T2 (seen
 * twice+); evicted keys fall into the B1/B2 ghost directories, and
 * ghost hits move the adaptation target p that REPLACE uses to pick
 * which side gives up its LRU block. Uses the same GhostCache class
 * as the flat engine so directory trimming is bit-identical. Since
 * the surrounding BlockCache drives evictions (victimFor -> onErase)
 * and insertions (onInsert) as separate calls, the protocol is split
 * across them: victimFor adapts p and performs the Case IV ghost
 * trims, onErase files the victim into its ghost list, and onInsert
 * lands the incoming key in T1 or T2 according to the adaptation
 * decision.
 */
class ReferenceArcPolicy : public cache::ReplacementPolicy
{
  public:
    explicit ReferenceArcPolicy(uint64_t capacity_blocks);

    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    trace::BlockId victimFor(trace::BlockId incoming) override;
    const char *name() const override { return "ARC"; }
    size_t size() const override { return where.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return where.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

    /** Adaptation target (audit/test hook); always in [0, c]. */
    uint64_t target() const { return p; }
    /** Ghost directory sizes (audit/test hook). */
    uint64_t ghostRecencySize() const { return b1.size(); }
    uint64_t ghostFrequencySize() const { return b2.size(); }

  private:
    struct Entry
    {
        /** 1 = T1, 2 = T2. */
        uint8_t list_id;
        std::list<trace::BlockId>::iterator it;
    };

    /** Ghost-hit adaptation + landing-side decision for `incoming`. */
    void adapt(trace::BlockId incoming);

    uint64_t capacity;
    /** Resident lists, MRU at front. */
    std::list<trace::BlockId> t1;
    std::list<trace::BlockId> t2;
    std::unordered_map<trace::BlockId, Entry> where;
    /** Ghost directories (recently evicted from T1 / from T2). */
    cache::GhostCache b1;
    cache::GhostCache b2;
    /** Adaptation target for |T1|, in [0, capacity]. */
    uint64_t p = 0;
    /** Landing side decided by adapt(): true -> T2 (ghost hit). */
    bool to_t2 = false;
    /** adapt() already ran for the upcoming insert (set by
     * victimFor, consumed by onInsert). */
    bool prepared = false;
    /** Last adapt() hit B2 (REPLACE tie-break). */
    bool last_in_b2 = false;
    /** Next onErase is a directory-replacement eviction that must not
     * be recorded in a ghost list (Case IV with T1 full). */
    bool suppress_ghost = false;
};

/**
 * W-TinyLFU (Caffeine). A small admission window (~1 % of capacity,
 * plain LRU) absorbs new keys; to enter the main SLRU region
 * (probation/protected, 20/80) the window victim must beat the main
 * region's eviction candidate on count-min sketch frequency. Rejected
 * candidates are remembered in a ghost so an immediate re-reference
 * earns a second sketch vote (the "doorkeeper boost" mechanism).
 * Shares cache::tinyLfuShape, util::CountMinSketch and
 * cache::GhostCache with the flat engine for bit-identity.
 */
class ReferenceTinyLfuPolicy : public cache::ReplacementPolicy
{
  public:
    ReferenceTinyLfuPolicy(uint64_t capacity_blocks, uint64_t seed);

    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    const char *name() const override { return "W-TinyLFU"; }
    size_t size() const override { return where.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return where.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

  private:
    /** Segment ids match the flat engine's PolicyState encoding. */
    enum Segment : uint8_t
    {
        kWindow = 0,
        kProbation = 1,
        kProtected = 2,
    };
    struct Entry
    {
        Segment segment;
        std::list<trace::BlockId>::iterator it;
    };

    std::list<trace::BlockId> &segmentList(Segment segment);

    uint64_t window_cap;
    uint64_t protected_cap;
    /** Segment lists, MRU at front. */
    std::list<trace::BlockId> window;
    std::list<trace::BlockId> probation;
    std::list<trace::BlockId> protected_seg;
    std::unordered_map<trace::BlockId, Entry> where;
    util::CountMinSketch sketch;
    /** Recently rejected admission candidates (second-chance boost). */
    cache::GhostCache rejected;
};

/**
 * Reference implementation of a built-in eviction policy, for
 * BlockCache's custom mode (directly or through
 * ApplianceConfig::replacement). The capacity sizes the
 * history-driven kinds (ARC's ghost directories, TinyLFU's
 * window/protected split and sketch width); the classic kinds ignore
 * it.
 */
std::unique_ptr<cache::ReplacementPolicy> makeReferencePolicy(
    cache::EvictionSpec spec, uint64_t capacity_blocks);

/**
 * The virtual AllocationPolicy making the decisions a sieve spec
 * makes, for FlatSieve's custom mode (directly or through
 * ApplianceConfig::allocation).
 */
std::unique_ptr<core::AllocationPolicy>
makeReferenceSievePolicy(const core::SievePolicySpec &spec);

} // namespace oracle
} // namespace sievestore

#endif // SIEVESTORE_TESTS_ORACLE_REFERENCE_REPLACEMENT_HPP

/**
 * @file
 * Replacement policies for the block cache.
 *
 * The paper's continuous configurations (SieveStore-C, AOD, WMNA) all
 * use a fully-associative LRU cache (Section 4); SieveStore-D performs
 * no within-epoch replacement. The hot path no longer lives here: the
 * built-in policies (LRU, FIFO, CLOCK, LFU, Random) are implemented
 * flat inside BlockCache, selected by EvictionSpec, with per-block
 * state inline in the shared block index (util/flat_index.hpp).
 *
 * This header keeps two kinds of virtual policies:
 *
 *  - Reference* classes: the original node-based (std::list +
 *    unordered_map) implementations, retained verbatim as the ground
 *    truth for the differential suite (test_flat_cache_differential),
 *    which runs them as custom BlockCache policies through
 *    makeReferencePolicy.
 *  - OracleRetainPolicy: the Section 3.1 oracle, which needs per-day
 *    protected-set state that does not fit a POD slot payload.
 *
 * The extra policies support the Section 3.1 analysis: OracleRetain
 * models the "ideal (oracle) replacement policy [that] evicts only
 * those blocks that are not in the top 1% frequently accessed blocks"
 * (the LTR-like policy of [15]), and Belady MIN lives in belady.hpp.
 */

#ifndef SIEVESTORE_CACHE_REPLACEMENT_HPP
#define SIEVESTORE_CACHE_REPLACEMENT_HPP

#include <algorithm>
#include <list>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/ghost_cache.hpp"
#include "trace/block.hpp"
#include "util/count_min.hpp"
#include "util/flow_annotations.hpp"
#include "util/random.hpp"

namespace sievestore {
namespace cache {

/** Built-in eviction policy, implemented flat inside BlockCache. */
enum class EvictionKind
{
    Lru,
    Fifo,
    Clock,
    Lfu,
    Random,
    /** SIEVE (NSDI'24): FIFO queue, visited bit, lazy hand sweeping
     * tail-to-head; hits never move blocks. */
    Sieve,
    /** ARC: T1/T2 resident lists with B1/B2 ghost directories driving
     * online recency/frequency adaptation. */
    Arc,
    /** W-TinyLFU: small admission window in front of an SLRU main
     * region, gated by a count-min frequency sketch. */
    TinyLfu,
};

/**
 * Number of built-in eviction kinds — the compile-time half of the
 * policy fabric's exhaustiveness guard. Every dispatch switch over
 * EvictionKind (BlockCache's policy transitions, the reference
 * factory, the name table) carries no default case, so -Werror's
 * -Wswitch turns an enumerator added without full wiring
 * (batchReplace, footprint, invariants) into a build break; this
 * count plus the assert below pin the enum's tail so the kind count
 * and the switches cannot drift apart silently.
 */
inline constexpr size_t kEvictionKindCount = 8;
static_assert(static_cast<size_t>(EvictionKind::TinyLfu) + 1 ==
                  kEvictionKindCount,
              "EvictionKind grew: bump kEvictionKindCount and wire the "
              "new kind through every dispatch switch (policy "
              "transitions, victim selection, batchReplace coverage, "
              "memoryBytes, checkInvariants, name table)");

/** Human-readable name ("LRU", "FIFO", ...). */
const char *evictionKindName(EvictionKind kind);

/** Selects and parameterizes a built-in eviction policy. */
struct EvictionSpec
{
    EvictionKind kind = EvictionKind::Lru;
    /** Rng seed; consumed by Random (victim draws) and TinyLfu
     * (sketch row seeds). */
    uint64_t seed = 1;
};

/**
 * Victim-selection strategy. The policy tracks exactly the set of
 * resident blocks, mirrored by BlockCache: onInsert/onErase bracket
 * residency and onAccess observes hits.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    // Taint sinks: victim selection state must never see measured
    // data (the observe-never-decide storage contract).
    /** A block became resident. */
    virtual SIEVE_TAINT_SINK void onInsert(trace::BlockId block) = 0;
    /** A resident block was accessed (hit). */
    virtual SIEVE_TAINT_SINK void onAccess(trace::BlockId block) = 0;
    /** A resident block was removed (eviction or batch replace). */
    virtual SIEVE_TAINT_SINK void onErase(trace::BlockId block) = 0;
    /** Choose the next victim. @pre at least one resident block. */
    virtual trace::BlockId victim() = 0;

    /**
     * Choose the victim that makes room for `incoming` (a key that is
     * about to become resident). History-driven policies (ARC) adapt
     * on the incoming key's ghost hits before picking a side; every
     * other policy ignores the hint and falls back to victim().
     */
    virtual trace::BlockId
    victimFor(trace::BlockId incoming)
    {
        (void)incoming;
        return victim();
    }

    /** Human-readable policy name. */
    virtual const char *name() const = 0;

    /** Number of blocks the policy currently tracks (audit hook). */
    virtual size_t size() const = 0;
    /** True if the policy tracks `block` (audit hook). */
    virtual bool contains(trace::BlockId block) const = 0;

    /**
     * Policy bookkeeping footprint (util/footprint.hpp convention).
     * BlockCache adds this to its residency-index cost so flat and
     * reference builds report comparable totals.
     */
    virtual uint64_t memoryBytes() const = 0;
};

/**
 * Least-recently-used, node-based reference implementation (the
 * paper's common policy; the flat engine in BlockCache is the
 * production path).
 */
class ReferenceLruPolicy : public ReplacementPolicy
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

/** Uniform-random victim (reference implementation). */
class ReferenceRandomPolicy : public ReplacementPolicy
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
 * Least-frequently-used with FIFO tie-break (reference counting),
 * reference implementation.
 */
class ReferenceLfuPolicy : public ReplacementPolicy
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
 * CLOCK (second-chance): the classic approximation of LRU used by
 * production buffer caches. Blocks sit on a circular list with a
 * reference bit; the hand clears bits until it finds an unreferenced
 * victim. Included as a realistic deployment alternative to the
 * simulator's exact LRU. Reference implementation.
 */
class ReferenceClockPolicy : public ReplacementPolicy
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
 * SIEVE (NSDI'24), node-based reference implementation. A FIFO queue
 * with one visited bit per block and a hand that sweeps from the tail
 * (oldest) toward the head: a visited block gets its bit cleared and
 * survives, the first unvisited block is the victim, and the hand
 * parks just past it for the next eviction. Hits only set the bit —
 * no list surgery — which is what makes the flat engine's batch path
 * payload-only.
 */
class ReferenceSievePolicy : public ReplacementPolicy
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
 * ARC (FAST'03), node-based reference implementation. Residents split
 * into T1 (seen once) and T2 (seen twice+); evicted keys fall into the
 * B1/B2 ghost directories, and ghost hits move the adaptation target
 * p that REPLACE uses to pick which side gives up its LRU block. Uses
 * the same GhostCache class as the flat engine so directory trimming
 * is bit-identical across builds. Since the surrounding BlockCache
 * drives evictions (victimFor -> onErase) and insertions (onInsert)
 * as separate calls, the protocol is split across them: victimFor
 * adapts p and performs the Case IV ghost trims, onErase files the
 * victim into its ghost list, and onInsert lands the incoming key in
 * T1 or T2 according to the adaptation decision.
 */
class ReferenceArcPolicy : public ReplacementPolicy
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
    GhostCache b1;
    GhostCache b2;
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
 * W-TinyLFU region split, computed once so the flat engine and the
 * reference engine can never disagree on the geometry: the admission
 * window is ~1 % of capacity (at least one block), and the protected
 * segment gets 80 % of what remains.
 */
struct TinyLfuShape
{
    uint64_t window_cap;
    uint64_t main_cap;
    uint64_t protected_cap;
};

inline TinyLfuShape
tinyLfuShape(uint64_t capacity_blocks)
{
    TinyLfuShape shape;
    shape.window_cap = std::max<uint64_t>(1, capacity_blocks / 100);
    shape.main_cap = capacity_blocks > shape.window_cap
                         ? capacity_blocks - shape.window_cap
                         : 0;
    shape.protected_cap = shape.main_cap * 4 / 5;
    return shape;
}

/**
 * W-TinyLFU (Caffeine), node-based reference implementation. A small
 * admission window (~1 % of capacity, plain LRU) absorbs new keys; to
 * enter the main SLRU region (probation/protected, 20/80) the window
 * victim must beat the main region's eviction candidate on count-min
 * sketch frequency. Rejected candidates are remembered in a ghost so
 * an immediate re-reference earns a second sketch vote (the
 * "doorkeeper boost" mechanism). Shares util::CountMinSketch and
 * cache::GhostCache with the flat engine for bit-identity.
 */
class ReferenceTinyLfuPolicy : public ReplacementPolicy
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
    GhostCache rejected;
};

/**
 * Oracle retain-set policy (Section 3.1): never evicts a block in the
 * protected set while an unprotected block exists; falls back to LRU
 * among unprotected blocks, then among protected ones. The protected
 * set (e.g. the day's top-1 % blocks) is installed by the experiment
 * before replaying the day.
 */
class OracleRetainPolicy : public ReferenceLruPolicy
{
  public:
    /** Replace the protected set. */
    void setProtected(std::unordered_set<trace::BlockId> protected_set);

    trace::BlockId victim() override;
    const char *name() const override { return "OracleRetain"; }
    uint64_t memoryBytes() const override;

  private:
    std::unordered_set<trace::BlockId> protected_blocks;
};

/**
 * Reference (seed) implementation of a built-in policy, the oracle of
 * the differential suite (ApplianceConfig::replacement or the custom
 * BlockCache constructor reaches it). The capacity
 * sizes the history-driven kinds (ARC's ghost directories, TinyLFU's
 * window/protected split and sketch width); the classic kinds ignore
 * it.
 */
std::unique_ptr<ReplacementPolicy> makeReferencePolicy(
    EvictionSpec spec, uint64_t capacity_blocks);

} // namespace cache
} // namespace sievestore

#endif // SIEVESTORE_CACHE_REPLACEMENT_HPP

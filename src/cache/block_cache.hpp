/**
 * @file
 * Fully-associative block cache (Section 4) over one flat block index.
 *
 * Tracks residency at 512-byte block granularity. Capacity is
 * expressed in blocks (a 16 GB SSD cache holds 31.25 M blocks).
 * Supports both the continuous model (insert with eviction) and
 * SieveStore-D's discrete model (batchReplace with allocation/
 * replacement cancellation at epoch boundaries).
 *
 * Hot-path layout: residency and replacement-policy state live in a
 * single open-addressing FlatIndex slot per block (PolicyState
 * payload), so a resident hit is one hash probe that both answers the
 * residency test and reaches the policy's per-block state. The
 * built-in policies (EvictionKind) keep their order books in an
 * index-linked arena (LRU/FIFO/CLOCK), a dense vector (Random) or an
 * indexed binary min-heap (LFU) instead of pointer-linked std::lists.
 * The table is pre-sized for `capacity_blocks` at construction, so
 * steady-state replay never rehashes.
 *
 * Two modes share the index:
 *  - flat (default): EvictionSpec selects a built-in policy whose
 *    transitions are inlined switch dispatch — no virtual calls;
 *  - custom: a virtual ReplacementPolicy (the Section 3.1
 *    OracleRetain, or a test oracle in tests/oracle/ that the
 *    differential suite runs against the flat kinds) runs beside the
 *    index, which then only tracks residency. Every entry point, the
 *    batched probe paths included, serves both modes.
 */

#ifndef SIEVESTORE_CACHE_BLOCK_CACHE_HPP
#define SIEVESTORE_CACHE_BLOCK_CACHE_HPP

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/ghost_cache.hpp"
#include "cache/replacement.hpp"
#include "trace/block.hpp"
#include "util/count_min.hpp"
#include "util/flat_index.hpp"
#include "util/flow_annotations.hpp"
#include "util/random.hpp"

namespace sievestore {
namespace cache {

/** Result of a discrete batch replacement (epoch boundary). */
struct BatchReplaceResult
{
    /** Blocks newly written into the cache (allocation-writes). */
    uint64_t allocated = 0;
    /**
     * Blocks present in both the outgoing and incoming sets; their
     * "replacement and allocation cancel each other to eliminate
     * unnecessary block moves" (Section 3.2).
     */
    uint64_t retained = 0;
    /** Blocks dropped from the cache. */
    uint64_t evicted = 0;
};

/**
 * Per-resident-block policy state, stored inline in the block index
 * slot (16 bytes). The policy fabric gives every EvictionKind the
 * same two typed words; the kind fixes their interpretation:
 *
 *  kind     | primary                  | secondary
 *  ---------+--------------------------+---------------------------
 *  LRU/FIFO | IndexList node index     | unused
 *  CLOCK    | IndexList node index     | reference bit (0/1)
 *  LFU      | true access count (>= 1) | slot in the LFU victim heap
 *  Random   | position in victim pool  | unused
 *  SIEVE    | IndexList node index     | visited bit (0/1)
 *  ARC      | IndexList node index     | resident list (1=T1, 2=T2)
 *  TinyLfu  | IndexList node index     | segment (0=window,
 *           |                          |   1=probation, 2=protected)
 *
 * Node indices point into the arena that owns the block's segment
 * (`order` for LRU/FIFO/CLOCK/SIEVE/ARC-T1/window, `order2` for
 * ARC-T2/probation, `order3` for protected). Unused in custom-policy
 * mode (the policy keeps its own state).
 *
 * LFU's heap orders {count, seq, block} entries by (count, seq), seq
 * being the insertion sequence that breaks count ties. A hit bumps
 * only `primary`, so an entry's heap count is the count it was last
 * placed with: a lower bound on the true count, since counts only
 * grow. The victim search re-keys (sifts down) the root until its
 * stored count is current, at which point it is the exact (count,
 * seq) minimum. Each re-key consumes at least one earlier hit, so
 * eviction is amortized O(log capacity) and a hit stays one probe
 * plus an increment.
 */
struct PolicyState
{
    uint64_t primary;
    uint64_t secondary;
};

/** Fully-associative set of resident blocks with bounded capacity. */
class BlockCache
{
  public:
    /**
     * Flat-engine cache with a built-in policy.
     * @param capacity_blocks capacity in 512-byte blocks (>= 1)
     * @param spec            built-in policy selection (default LRU)
     */
    explicit BlockCache(uint64_t capacity_blocks, EvictionSpec spec = {});

    /**
     * Custom-mode cache driving a virtual policy (OracleRetain or a
     * test oracle). A null policy is a configuration error
     * (util::fatal).
     */
    BlockCache(uint64_t capacity_blocks,
               std::unique_ptr<ReplacementPolicy> policy);

    /** Chunk width of the batched probe paths (== FlatIndex's). */
    static constexpr size_t kProbeBatch = util::FlatIndex<PolicyState>::kBatchChunk;

    /** Residency test with no side effects. */
    bool contains(trace::BlockId block) const;

    /**
     * Access a block: if resident, notifies the replacement policy (LRU
     * promotion) and returns true; otherwise returns false. One hash
     * probe in flat mode. Taint sink: cache mutation entry point —
     * residency state must never depend on measured data (this and
     * every mutator below).
     */
    SIEVE_TAINT_SINK bool access(trace::BlockId block);

    /**
     * Batched access: `hit[i]` = access(blocks[i]). Each chunk runs the
     * appliance's hit path — probeBatch, then touchProbed's transition
     * for every hit in batch order (transitions touch payloads, the
     * order book or the custom policy, never the index structure, so
     * the gathered pointers stay valid — duplicates included).
     */
    SIEVE_TAINT_SINK void touchBatch(std::span<const trace::BlockId> blocks,
                                     std::span<bool> hit);

    /**
     * Probe-gather for the appliance's request body: `st[i]` points at
     * blocks[i]'s policy state, or nullptr if absent. Pass each hit's
     * state to touchProbed, which routes the transition to the custom
     * policy when one is active. Pointers follow the FlatIndex
     * invalidation rule: consume them before any insert/erase on this
     * cache.
     */
    SIEVE_TAINT_SINK void probeBatch(std::span<const trace::BlockId> blocks,
                                     std::span<PolicyState *> st);

    /** Apply the resident-hit policy transition to a gathered state
     *  (the mutate phase of a probe-gathered hit): the custom policy's
     *  onAccess, or the flat kind's transition. The block key is
     *  needed by the custom policy and the sketch/segment kinds
     *  (TinyLfu, ARC). */
    SIEVE_TAINT_SINK void touchProbed(trace::BlockId block,
                                      PolicyState &st);

    /**
     * Make a block resident, evicting a victim if at capacity.
     * @return the evicted block, if any
     * @pre the block is not already resident
     */
    SIEVE_TAINT_SINK std::optional<trace::BlockId>
    insert(trace::BlockId block);

    /** Remove a block. @retval true if it was resident. */
    bool erase(trace::BlockId block);

    /**
     * Discrete-epoch replacement: make the cache hold exactly
     * `new_set` (first-come priority, deduplicated, truncated to
     * capacity if larger). Returns the move accounting used by
     * SieveStore-D's allocation-write counts.
     *
     * The optional out-vectors are cleared and filled with the blocks
     * actually installed (in install order — the storage layer
     * page-coalesces them into device writes) and the blocks dropped
     * (in eviction order — they become trims). Passing null skips the
     * capture; the accounting result is identical either way.
     */
    SIEVE_TAINT_SINK BatchReplaceResult
    batchReplace(const std::vector<trace::BlockId> &new_set,
                 std::vector<trace::BlockId> *allocated_out = nullptr,
                 std::vector<trace::BlockId> *evicted_out = nullptr);

    uint64_t size() const { return index.size(); }
    uint64_t capacity() const { return capacity_blocks; }
    bool full() const { return index.size() >= capacity_blocks; }

    /** Active policy name ("LRU", "CLOCK", "OracleRetain", ...). */
    const char *policyName() const;

    /** The custom policy, or nullptr when the flat engine is active. */
    const ReplacementPolicy *customPolicy() const { return custom.get(); }

    /** Snapshot of resident blocks (unordered). */
    std::vector<trace::BlockId> contents() const;

    /**
     * Footprint of all per-block cache metadata — the shared
     * residency+policy index plus the policy's order book
     * (util/footprint.hpp convention). Replacement state is included:
     * the flat engine stores it inline in the index slots, so it is
     * not separable from residency.
     */
    uint64_t memoryBytes() const;

    /**
     * Audit occupancy accounting: the block index is structurally
     * sound, never exceeds capacity, and the policy state mirrors it
     * exactly (order book / pool / custom policy track the same
     * blocks). O(size); aborts on violation.
     */
    void checkInvariants() const;

  private:
    using BlockIndex = util::FlatIndex<PolicyState>;

    /** Resident-hit transition for either mode (access, touchBatch
     * and touchProbed share it). */
    void touchResident(trace::BlockId block, PolicyState &st);

    /** Flat-policy transition helpers (no-ops in custom mode). */
    void policyInsert(trace::BlockId block, PolicyState &st);
    void policyAccess(trace::BlockId block, PolicyState &st);
    void policyErase(trace::BlockId block, const PolicyState &st);
    trace::BlockId policyVictim(trace::BlockId incoming);

    /** ARC ghost-hit adaptation + landing-side decision. */
    void arcAdapt(trace::BlockId incoming);

    /** Reserve the index and engage the active kind's fabric state
     * (extra arenas, ghost directories, sketch). */
    void initFlatEngine();

    /** Evict `block`: policy bookkeeping plus index removal. */
    void eraseResident(trace::BlockId block);

    /** LFU victim-heap entry, keyed by (count, seq). `count` is the
     * access count when the entry was last placed (<= the true count
     * in the block's PolicyState). */
    struct LfuEntry
    {
        uint64_t count;
        uint64_t seq;
        trace::BlockId block;

        bool
        before(const LfuEntry &o) const
        {
            return count < o.count || (count == o.count && seq < o.seq);
        }
    };

    /** Store `e` at heap `slot` and point its block's back-link there. */
    void lfuMove(size_t slot, const LfuEntry &e);
    /** Sift `e` up / down from the hole at `slot`, moving the entries
     * it passes (back-links included); stores `e` and returns its
     * final slot, whose back-link the caller sets. */
    size_t lfuSiftUp(size_t slot, LfuEntry e);
    size_t lfuSiftDown(size_t slot, LfuEntry e);

    uint64_t capacity_blocks;
    EvictionSpec spec;
    /** Non-null selects custom mode. */
    std::unique_ptr<ReplacementPolicy> custom;

    /** Residency + per-block policy state, one slot per block. */
    BlockIndex index;
    /** Primary order book: LRU/FIFO recency order (front = hottest),
     * CLOCK ring, SIEVE queue (front = newest), ARC T1, or the
     * TinyLfu admission window. */
    util::IndexList order;
    /** Secondary order book: ARC T2 or TinyLfu probation. */
    util::IndexList order2;
    /** Tertiary order book: TinyLfu protected segment. */
    util::IndexList order3;
    /** CLOCK/SIEVE hand: node index into `order`, kNull = wrapped. */
    uint32_t hand = util::IndexList::kNull;
    /** Random: dense victim pool (swap-with-last on erase). */
    std::vector<trace::BlockId> pool;
    /** LFU: indexed binary min-heap on (count, seq), reserved at
     * capacity; the root is the victim once its count is current. */
    std::vector<LfuEntry> lfu_heap;
    /** LFU insertion-sequence source. */
    uint64_t lfu_sequence = 0;
    util::Rng rng;

    /** Recency-side ghost: ARC B1 (evicted from T1) or the TinyLfu
     * rejected-candidate set. Engaged only for those kinds. */
    std::optional<GhostCache> ghost_recent;
    /** Frequency-side ghost: ARC B2 (evicted from T2). */
    std::optional<GhostCache> ghost_frequent;
    /** TinyLfu admission-frequency sketch. */
    std::optional<util::CountMinSketch> sketch;

    /** ARC adaptation target for |T1|, in [0, capacity]. */
    uint64_t arc_p = 0;
    /** ARC landing side decided by arcAdapt(): true -> T2. */
    bool arc_to_t2 = false;
    /** arcAdapt() already ran for the upcoming insert (set by
     * policyVictim, consumed by policyInsert). */
    bool arc_prepared = false;
    /** Last arcAdapt() hit B2 (REPLACE tie-break). */
    bool arc_last_in_b2 = false;
    /** Next policyErase is a directory replacement that must not be
     * ghost-recorded (ARC Case IV(a) with T1 full). */
    bool arc_suppress_ghost = false;

    /** TinyLfu region split (all zero for other kinds). */
    TinyLfuShape tlfu{};
};

} // namespace cache
} // namespace sievestore

#endif // SIEVESTORE_CACHE_BLOCK_CACHE_HPP

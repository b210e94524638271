/**
 * @file
 * Replacement-policy selection for the block cache.
 *
 * The paper's continuous configurations (SieveStore-C, AOD, WMNA) all
 * use a fully-associative LRU cache (Section 4); SieveStore-D performs
 * no within-epoch replacement. The built-in policies (LRU, FIFO,
 * CLOCK, LFU, Random, SIEVE, ARC, W-TinyLFU) are implemented flat
 * inside BlockCache, selected by EvictionSpec, with per-block state
 * inline in the shared block index (util/flat_index.hpp).
 *
 * The one virtual policy here is OracleRetainPolicy, the
 * Section 3.1 oracle: it models the "ideal (oracle) replacement
 * policy [that] evicts only those blocks that are not in the top 1%
 * frequently accessed blocks" (the LTR-like policy of [15]), whose
 * per-day protected set does not fit a POD slot payload. It runs
 * through BlockCache's custom mode, behind the ReplacementPolicy
 * seam. Belady MIN lives in belady.hpp. The node-based reference
 * implementations the flat engine is differenced against live with
 * the other test oracles in tests/oracle/.
 */

#ifndef SIEVESTORE_CACHE_REPLACEMENT_HPP
#define SIEVESTORE_CACHE_REPLACEMENT_HPP

#include <algorithm>
#include <list>
#include <unordered_map>
#include <unordered_set>

#include "trace/block.hpp"
#include "util/flow_annotations.hpp"

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
 * EvictionKind (BlockCache's policy transitions, the name table, the
 * test oracle's factory in tests/oracle/) carries no default case, so
 * -Werror's -Wswitch turns an enumerator added without full wiring
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
              "memoryBytes, checkInvariants, name table, and the "
              "test oracle's factory in tests/oracle/)");

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
     * custom engines report comparable totals.
     */
    virtual uint64_t memoryBytes() const = 0;
};

/**
 * W-TinyLFU region split, computed once so the flat engine and its
 * test oracle can never disagree on the geometry: the admission
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
 * Oracle retain-set policy (Section 3.1): LRU that never evicts a
 * block in the protected set while an unprotected block is resident,
 * falling back to LRU among the protected ones when nothing else is
 * left. The protected set (e.g. the day's top-1 % blocks) is
 * installed by the experiment before replaying the day.
 */
class OracleRetainPolicy : public ReplacementPolicy
{
  public:
    /** Replace the protected set. */
    void setProtected(std::unordered_set<trace::BlockId> protected_set);

    void onInsert(trace::BlockId block) override;
    void onAccess(trace::BlockId block) override;
    void onErase(trace::BlockId block) override;
    trace::BlockId victim() override;
    const char *name() const override { return "OracleRetain"; }
    size_t size() const override { return where.size(); }
    bool
    contains(trace::BlockId block) const override
    {
        return where.count(block) != 0;
    }
    uint64_t memoryBytes() const override;

  private:
    /** Recency list, most-recent at front. */
    std::list<trace::BlockId> order;
    std::unordered_map<trace::BlockId, std::list<trace::BlockId>::iterator>
        where;
    std::unordered_set<trace::BlockId> protected_blocks;
};

} // namespace cache
} // namespace sievestore

#endif // SIEVESTORE_CACHE_REPLACEMENT_HPP

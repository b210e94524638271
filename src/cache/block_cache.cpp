#include "cache/block_cache.hpp"

#include <algorithm>

#include "util/alloc_guard.hpp"
#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace cache {

using trace::BlockId;
using util::IndexList;

namespace {

void
checkCapacity(uint64_t capacity_blocks)
{
    if (capacity_blocks == 0)
        util::fatal("cache capacity must be at least one block");
    // The order-book arena links nodes by 32-bit index; at 512-byte
    // blocks the cap is a 2 TB cache, far past the paper's 32 GB.
    SIEVE_CHECK(capacity_blocks < IndexList::kNull,
                "cache capacity %llu exceeds the 2^32-1 block arena",
                static_cast<unsigned long long>(capacity_blocks));
}

} // namespace

BlockCache::BlockCache(uint64_t capacity, EvictionSpec espec)
    : capacity_blocks(capacity), spec(espec), rng(espec.seed)
{
    checkCapacity(capacity_blocks);
    initFlatEngine();
}

BlockCache::BlockCache(uint64_t capacity,
                       std::unique_ptr<ReplacementPolicy> policy)
    : capacity_blocks(capacity), custom(std::move(policy)),
      rng(spec.seed)
{
    if (!custom)
        util::fatal("custom cache requires a replacement policy");
    checkCapacity(capacity_blocks);
    initFlatEngine();
}

void
BlockCache::initFlatEngine()
{
    index.reserve(capacity_blocks);
    if (custom)
        return;
    switch (spec.kind) {
      case EvictionKind::Lru:
      case EvictionKind::Fifo:
      case EvictionKind::Clock:
      case EvictionKind::Sieve:
      case EvictionKind::Random:
        // Single-arena kinds recycle the victim's node before each
        // steady-state insert; warmup growth runs under insert()'s
        // disarm, so no up-front arena reservation is needed.
        break;
      case EvictionKind::Lfu:
        // Reserved at capacity so no insert (warmup, steady state or
        // a batchReplace install) ever grows the heap.
        lfu_heap.reserve(capacity_blocks);
        break;
      case EvictionKind::Arc:
        // Steady-state inserts can land in the other arena than the
        // victim came from (T1 eviction, T2 landing), so both arenas
        // are reserved for the worst case up front to keep the
        // no-alloc contract.
        order.reserve(capacity_blocks);
        order2.reserve(capacity_blocks);
        ghost_recent.emplace(capacity_blocks);
        ghost_frequent.emplace(capacity_blocks);
        break;
      case EvictionKind::TinyLfu:
        order.reserve(capacity_blocks);
        order2.reserve(capacity_blocks);
        order3.reserve(capacity_blocks);
        ghost_recent.emplace(capacity_blocks);
        sketch.emplace(capacity_blocks, spec.seed);
        tlfu = tinyLfuShape(capacity_blocks);
        break;
    }
}

bool
BlockCache::contains(BlockId block) const
{
    return index.contains(block);
}

void
BlockCache::touchResident(BlockId block, PolicyState &st)
{
    // Custom policies keep their own per-block state; for them the
    // slot only proves residency.
    if (custom)
        custom->onAccess(block);
    else
        policyAccess(block, st);
}

bool
BlockCache::access(BlockId block)
{
    // Flat engine: a resident hit is one probe plus inline policy
    // state; arena splices never allocate. Custom policies own their
    // state and make no such promise.
    SIEVE_ASSERT_NO_ALLOC_WHEN(!custom);
    PolicyState *st = index.find(block);
    if (!st)
        return false;
    touchResident(block, *st);
    return true;
}

void
BlockCache::touchBatch(std::span<const BlockId> blocks,
                       std::span<bool> hit)
{
    SIEVE_DCHECK(hit.size() >= blocks.size());
    // Probe-gather then mutate: all probes in a chunk resolve through
    // the kernel before any policy transition runs. Transitions touch
    // payloads, the order book or the custom policy, never the index
    // structure, so the gathered pointers stay valid across the whole
    // chunk — duplicate blocks simply retouch the same slot in batch
    // order, exactly as repeated access() calls would.
    SIEVE_ASSERT_NO_ALLOC_WHEN(!custom);
    PolicyState *st[kProbeBatch];
    for (size_t base = 0; base < blocks.size(); base += kProbeBatch) {
        const size_t n = std::min(kProbeBatch, blocks.size() - base);
        probeBatch(blocks.subspan(base, n),
                   std::span<PolicyState *>(st, n));
        for (size_t i = 0; i < n; ++i) {
            hit[base + i] = st[i] != nullptr;
            if (st[i] != nullptr)
                touchResident(blocks[base + i], *st[i]);
        }
    }
}

void
BlockCache::probeBatch(std::span<const BlockId> blocks,
                       std::span<PolicyState *> st)
{
    SIEVE_DCHECK(st.size() >= blocks.size());
    SIEVE_ASSERT_NO_ALLOC;
    index.findBatch(blocks, st);
}

void
BlockCache::touchProbed(BlockId block, PolicyState &st)
{
    SIEVE_ASSERT_NO_ALLOC_WHEN(!custom);
    touchResident(block, st);
}

std::optional<BlockId>
BlockCache::insert(BlockId block)
{
    // Steady state (cache full) recycles: the victim's index slot and
    // order-book node are released before the insert reuses them, and
    // the pre-reserved table never rehashes. Warmup below capacity
    // may still grow the order arena, so the region engages only once
    // the cache is full.
    const bool steady = index.size() >= capacity_blocks;
    SIEVE_ASSERT_NO_ALLOC_WHEN(!custom && steady);
    // Warmup growth is amortized and legitimate even when a caller
    // (Appliance::processBatch) holds a batch-wide no-alloc region.
    std::optional<util::AllocGuardDisarm> warmup_growth;
    if (!steady)
        warmup_growth.emplace(); // sieve-analyze: allow(no-alloc)
    std::optional<BlockId> evicted;
    if (steady) {
        // Pre-check the contract here: below capacity findOrInsert
        // detects duplicates for free, but at capacity the victim
        // could be the duplicate itself and mask the misuse.
        if (index.contains(block))
            util::panic("BlockCache: insert of resident block %llx",
                        static_cast<unsigned long long>(block));
        const BlockId victim =
            custom ? custom->victimFor(block) : policyVictim(block);
        eraseResident(victim);
        evicted = victim;
    }
    const auto [st, inserted] = index.findOrInsert(block);
    if (!inserted)
        util::panic("BlockCache: insert of resident block %llx",
                    static_cast<unsigned long long>(block));
    if (custom)
        custom->onInsert(block);
    else
        policyInsert(block, *st);
    return evicted;
}

bool
BlockCache::erase(BlockId block)
{
    // Backward-shift deletion and freelist recycling: never allocates
    // in the flat engine.
    SIEVE_ASSERT_NO_ALLOC_WHEN(!custom);
    if (!index.contains(block))
        return false;
    eraseResident(block);
    return true;
}

BatchReplaceResult
BlockCache::batchReplace(const std::vector<BlockId> &new_set,
                         std::vector<BlockId> *allocated_out,
                         std::vector<BlockId> *evicted_out)
{
    BatchReplaceResult result;
    if (allocated_out)
        allocated_out->clear();
    if (evicted_out)
        evicted_out->clear();

    // Deduplicate and truncate to capacity in first-come priority
    // order (the selector emits its set hottest-first).
    util::FlatIndex<uint8_t> incoming(
            std::min<size_t>(new_set.size(), capacity_blocks));
    std::vector<BlockId> install;
    install.reserve(std::min<size_t>(new_set.size(), capacity_blocks));
    for (BlockId b : new_set) {
        if (install.size() >= capacity_blocks)
            break;
        if (incoming.findOrInsert(b).second)
            install.push_back(b);
    }

    // Evict residents that are not retained; retained blocks cancel
    // their replacement+allocation pair.
    std::vector<BlockId> to_evict;
    to_evict.reserve(index.size());
    index.forEach([&](uint64_t key, const PolicyState &) {
        if (incoming.contains(key))
            ++result.retained;
        else
            to_evict.push_back(key);
    });
    for (BlockId b : to_evict)
        eraseResident(b);
    result.evicted = to_evict.size();
    if (evicted_out)
        *evicted_out = std::move(to_evict);

    for (BlockId b : install) {
        const auto [st, inserted] = index.findOrInsert(b);
        if (!inserted)
            continue; // retained
        if (custom)
            custom->onInsert(b);
        else
            policyInsert(b, *st);
        ++result.allocated;
        if (allocated_out)
            allocated_out->push_back(b);
    }
    return result;
}

std::vector<BlockId>
BlockCache::contents() const
{
    std::vector<BlockId> blocks;
    blocks.reserve(index.size());
    index.forEach([&](uint64_t key, const PolicyState &) {
        blocks.push_back(key);
    });
    return blocks;
}

const char *
BlockCache::policyName() const
{
    return custom ? custom->name() : evictionKindName(spec.kind);
}

uint64_t
BlockCache::memoryBytes() const
{
    uint64_t total = index.memoryBytes();
    if (custom)
        return total + custom->memoryBytes();
    total += order.memoryBytes() + order2.memoryBytes() +
             order3.memoryBytes() + util::vectorFootprintBytes(pool) +
             util::vectorFootprintBytes(lfu_heap);
    // Ghost directories and the admission sketch are policy metadata
    // like the order books and are charged the same way.
    if (ghost_recent)
        total += ghost_recent->memoryBytes();
    if (ghost_frequent)
        total += ghost_frequent->memoryBytes();
    if (sketch)
        total += sketch->memoryBytes();
    return total;
}

void
BlockCache::arcAdapt(BlockId incoming)
{
    const bool in_b1 = ghost_recent->contains(incoming);
    const bool in_b2 = !in_b1 && ghost_frequent->contains(incoming);
    arc_last_in_b2 = in_b2;
    if (in_b1) {
        const uint64_t delta = std::max<uint64_t>(
                1, ghost_frequent->size() / ghost_recent->size());
        arc_p = std::min(capacity_blocks, arc_p + delta);
        ghost_recent->erase(incoming);
        arc_to_t2 = true;
    } else if (in_b2) {
        const uint64_t delta = std::max<uint64_t>(
                1, ghost_recent->size() / ghost_frequent->size());
        arc_p = arc_p > delta ? arc_p - delta : 0;
        ghost_frequent->erase(incoming);
        arc_to_t2 = true;
    } else {
        arc_to_t2 = false;
    }
    arc_prepared = true;
}

void
BlockCache::policyInsert(BlockId block, PolicyState &st)
{
    switch (spec.kind) {
      case EvictionKind::Lru:
      case EvictionKind::Fifo:
        st.primary = order.pushFront(block);
        break;
      case EvictionKind::Clock:
        // Insert behind the hand so the new entry is inspected last
        // (kNull appends at the tail, matching insert-before-end).
        st.primary = order.insertBefore(hand, block);
        st.secondary = 1;
        break;
      case EvictionKind::Lfu:
        st.primary = 1;
        // The heap is reserved at capacity and never holds more
        // entries than the index, so this never reallocates.
        lfu_heap.push_back({}); // sieve-analyze: allow(no-alloc)
        st.secondary = lfuSiftUp(lfu_heap.size() - 1,
                                 {1, lfu_sequence++, block});
        break;
      case EvictionKind::Random:
        st.primary = pool.size();
        // Slots recycled by policyErase's swap-remove keep the vector
        // at capacity in steady state; growth happens only during
        // warmup, under insert()'s disarm.
        pool.push_back(block); // sieve-analyze: allow(no-alloc)
        break;
      case EvictionKind::Sieve:
        st.primary = order.pushFront(block);
        st.secondary = 0;
        break;
      case EvictionKind::Arc:
        // batchReplace installs (and below-capacity warmup) arrive
        // without a policyVictim call; adapt on the ghost hit now.
        if (!arc_prepared)
            arcAdapt(block);
        arc_prepared = false;
        if (arc_to_t2) {
            st.primary = order2.pushFront(block);
            st.secondary = 2;
        } else {
            st.primary = order.pushFront(block);
            st.secondary = 1;
        }
        break;
      case EvictionKind::TinyLfu: {
        sketch->add(block);
        // A recently rejected key earns a second sketch vote so a
        // prompt re-reference can win the next admission contest.
        if (ghost_recent->erase(block))
            sketch->add(block);
        st.primary = order.pushFront(block);
        st.secondary = 0;
        if (order.size() > tlfu.window_cap) {
            // Below-capacity growth: window overflow drains into
            // probation (at capacity policyVictim already made room).
            const BlockId demoted = order.value(order.tail());
            order.erase(order.tail());
            PolicyState *dst = index.find(demoted);
            SIEVE_DCHECK(dst != nullptr);
            dst->primary = order2.pushFront(demoted);
            dst->secondary = 1;
        }
        break;
      }
    }
}

void
BlockCache::policyAccess(BlockId block, PolicyState &st)
{
    switch (spec.kind) {
      case EvictionKind::Lru:
        order.moveToFront(static_cast<uint32_t>(st.primary));
        break;
      case EvictionKind::Fifo:
        break; // insertion order is preserved: hits do not promote
      case EvictionKind::Clock:
        st.secondary = 1;
        break;
      case EvictionKind::Lfu:
        ++st.primary; // the heap key catches up lazily in policyVictim
        break;
      case EvictionKind::Random:
        break;
      case EvictionKind::Sieve:
        st.secondary = 1; // visited; the queue is never touched
        break;
      case EvictionKind::Arc:
        if (st.secondary == 1) {
            // First re-reference: promote T1 -> T2 MRU.
            order.erase(static_cast<uint32_t>(st.primary));
            st.primary = order2.pushFront(block);
            st.secondary = 2;
        } else {
            order2.moveToFront(static_cast<uint32_t>(st.primary));
        }
        break;
      case EvictionKind::TinyLfu:
        sketch->add(block);
        if (st.secondary == 0) {
            order.moveToFront(static_cast<uint32_t>(st.primary));
        } else if (st.secondary == 1) {
            // Promote probation -> protected; over-cap demotes the
            // protected LRU back to probation MRU (at protected_cap
            // == 0 the promoted block demotes itself, netting a
            // probation move-to-front).
            order2.erase(static_cast<uint32_t>(st.primary));
            st.primary = order3.pushFront(block);
            st.secondary = 2;
            if (order3.size() > tlfu.protected_cap) {
                const BlockId demoted = order3.value(order3.tail());
                order3.erase(order3.tail());
                PolicyState *dst = index.find(demoted);
                SIEVE_DCHECK(dst != nullptr);
                dst->primary = order2.pushFront(demoted);
                dst->secondary = 1;
            }
        } else {
            order3.moveToFront(static_cast<uint32_t>(st.primary));
        }
        break;
    }
}

void
BlockCache::policyErase(BlockId block, const PolicyState &st)
{
    switch (spec.kind) {
      case EvictionKind::Lru:
      case EvictionKind::Fifo:
        order.erase(static_cast<uint32_t>(st.primary));
        break;
      case EvictionKind::Clock: {
        const auto node = static_cast<uint32_t>(st.primary);
        if (hand == node)
            hand = order.next(node);
        order.erase(node);
        break;
      }
      case EvictionKind::Lfu: {
        // Refill the freed slot with the last entry, which may belong
        // above or below it.
        const auto slot = static_cast<size_t>(st.secondary);
        const LfuEntry last = lfu_heap.back();
        lfu_heap.pop_back();
        if (slot == lfu_heap.size())
            break; // the erased entry was the last one
        const size_t to =
                slot > 0 && last.before(lfu_heap[(slot - 1) / 2])
                        ? lfuSiftUp(slot, last)
                        : lfuSiftDown(slot, last);
        lfuMove(to, last);
        break;
      }
      case EvictionKind::Random: {
        // Swap-with-last keeps the pool dense.
        const auto pos = static_cast<size_t>(st.primary);
        const BlockId last = pool.back();
        pool[pos] = last;
        if (last != block) {
            PolicyState *last_st = index.find(last);
            SIEVE_DCHECK(last_st != nullptr);
            last_st->primary = pos;
        }
        pool.pop_back();
        break;
      }
      case EvictionKind::Sieve: {
        const auto node = static_cast<uint32_t>(st.primary);
        // Step the hand toward the head past the erased node (prev of
        // the head is kNull, i.e. restart from the tail).
        if (hand == node)
            hand = order.prev(node);
        order.erase(node);
        break;
      }
      case EvictionKind::Arc: {
        const bool was_t1 = st.secondary == 1;
        (was_t1 ? order : order2)
                .erase(static_cast<uint32_t>(st.primary));
        if (arc_suppress_ghost) {
            arc_suppress_ghost = false;
            break;
        }
        // Evicted keys fall into the matching ghost directory.
        (was_t1 ? *ghost_recent : *ghost_frequent).insert(block);
        break;
      }
      case EvictionKind::TinyLfu:
        (st.secondary == 0   ? order
         : st.secondary == 1 ? order2
                             : order3)
                .erase(static_cast<uint32_t>(st.primary));
        break;
    }
}

BlockId
BlockCache::policyVictim(BlockId incoming)
{
    SIEVE_CHECK(!index.empty(), "victim() on empty cache");
    switch (spec.kind) {
      case EvictionKind::Lru:
      case EvictionKind::Fifo:
        return order.value(order.tail());
      case EvictionKind::Clock:
        // Sweep the ring clearing reference bits until one is clear.
        while (true) {
            if (hand == IndexList::kNull)
                hand = order.head();
            const BlockId block = order.value(hand);
            PolicyState *st = index.find(block);
            SIEVE_DCHECK(st != nullptr);
            if (st->secondary != 0) {
                st->secondary = 0;
                hand = order.next(hand);
            } else {
                return block;
            }
        }
      case EvictionKind::Lfu:
        // Heap counts are lower bounds (hits bump only the index
        // slot). Re-key the root until its count is current: it is
        // then below every stored key, hence every true key, and so
        // the exact (count, seq) minimum.
        while (true) {
            LfuEntry root = lfu_heap.front();
            PolicyState *st = index.find(root.block);
            SIEVE_DCHECK(st != nullptr);
            if (root.count == st->primary)
                return root.block;
            root.count = st->primary;
            st->secondary = lfuSiftDown(0, root);
        }
      case EvictionKind::Random:
        return pool[rng.nextBelow(pool.size())];
      case EvictionKind::Sieve: {
        // Sweep from the hand (or the tail) toward the head, clearing
        // visited bits; the first unvisited block is the victim and
        // the hand parks just past it.
        uint32_t node = hand != IndexList::kNull ? hand : order.tail();
        while (true) {
            if (node == IndexList::kNull)
                node = order.tail(); // wrapped past the head
            const BlockId block = order.value(node);
            PolicyState *st = index.find(block);
            SIEVE_DCHECK(st != nullptr);
            if (st->secondary != 0) {
                st->secondary = 0;
                node = order.prev(node);
            } else {
                hand = order.prev(node);
                return block;
            }
        }
      }
      case EvictionKind::Arc: {
        arcAdapt(incoming);
        if (!arc_to_t2) {
            // Case IV: the incoming key is in neither ghost
            // directory, so make directory room per the paper (>=
            // instead of == guards the transient L1 overshoot a
            // batchReplace refill creates).
            const uint64_t l1 = order.size() + ghost_recent->size();
            if (l1 >= capacity_blocks) {
                if (order.size() < capacity_blocks) {
                    ghost_recent->popOldest();
                } else {
                    // T1 alone fills the cache: evict its LRU with no
                    // ghost record (the canonical IV(a) inner arm).
                    arc_suppress_ghost = true;
                    return order.value(order.tail());
                }
            } else if (order.size() + order2.size() +
                               ghost_recent->size() +
                               ghost_frequent->size() >=
                       2 * capacity_blocks) {
                ghost_frequent->popOldest();
            }
        }
        // REPLACE(x, p): the side whose share exceeds its target.
        if (!order.empty() &&
            (order2.empty() || order.size() > arc_p ||
             (arc_last_in_b2 && order.size() == arc_p)))
            return order.value(order.tail());
        return order2.value(order2.tail());
      }
      case EvictionKind::TinyLfu: {
        if (order.empty()) {
            // Degenerate shape (external erases drained the window):
            // evict from the main region directly.
            return order2.empty() ? order3.value(order3.tail())
                                  : order2.value(order2.tail());
        }
        const BlockId candidate = order.value(order.tail());
        if (order2.empty() && order3.empty())
            return candidate;
        const BlockId main_victim = order2.empty()
                                        ? order3.value(order3.tail())
                                        : order2.value(order2.tail());
        if (sketch->estimate(candidate) >
            sketch->estimate(main_victim)) {
            // Candidate admitted: it takes the main region's place
            // and the main victim is evicted.
            order.erase(order.tail());
            PolicyState *cst = index.find(candidate);
            SIEVE_DCHECK(cst != nullptr);
            cst->primary = order2.pushFront(candidate);
            cst->secondary = 1;
            return main_victim;
        }
        ghost_recent->insert(candidate);
        return candidate;
      }
    }
    SIEVE_UNREACHABLE("unknown EvictionKind");
}

void
BlockCache::lfuMove(size_t slot, const LfuEntry &e)
{
    lfu_heap[slot] = e;
    PolicyState *st = index.find(e.block);
    SIEVE_DCHECK(st != nullptr);
    st->secondary = slot;
}

size_t
BlockCache::lfuSiftUp(size_t slot, LfuEntry e)
{
    while (slot > 0) {
        const size_t parent = (slot - 1) / 2;
        if (!e.before(lfu_heap[parent]))
            break;
        lfuMove(slot, lfu_heap[parent]);
        slot = parent;
    }
    lfu_heap[slot] = e;
    return slot;
}

size_t
BlockCache::lfuSiftDown(size_t slot, LfuEntry e)
{
    const size_t n = lfu_heap.size();
    while (true) {
        size_t child = 2 * slot + 1;
        if (child >= n)
            break;
        if (child + 1 < n && lfu_heap[child + 1].before(lfu_heap[child]))
            ++child;
        if (!lfu_heap[child].before(e))
            break;
        lfuMove(slot, lfu_heap[child]);
        slot = child;
    }
    lfu_heap[slot] = e;
    return slot;
}

void
BlockCache::eraseResident(BlockId block)
{
    if (custom) {
        custom->onErase(block);
        const bool erased = index.erase(block);
        SIEVE_CHECK(erased, "evicted block %llx was not resident",
                    static_cast<unsigned long long>(block));
        return;
    }
    const bool erased = index.eraseWith(block, [&](const PolicyState &st) {
        policyErase(block, st);
    });
    SIEVE_CHECK(erased, "evicted block %llx was not resident",
                static_cast<unsigned long long>(block));
}

void
BlockCache::checkInvariants() const
{
    SIEVE_CHECK(capacity_blocks >= 1);
    SIEVE_CHECK(index.size() <= capacity_blocks,
                "resident set %zu exceeds capacity %llu", index.size(),
                static_cast<unsigned long long>(capacity_blocks));
    index.checkInvariants();

    if (custom) {
        SIEVE_CHECK(custom->size() == index.size(),
                    "policy tracks %zu blocks, cache holds %zu",
                    custom->size(), index.size());
        index.forEach([&](uint64_t key, const PolicyState &) {
            SIEVE_CHECK(custom->contains(key),
                        "resident block %llx unknown to the %s policy",
                        static_cast<unsigned long long>(key),
                        custom->name());
        });
        return;
    }

    // Arena mirror: every node in `list` is resident, links back to
    // its node, and carries the expected segment tag (uint64_t(-1)
    // skips the tag check).
    const auto checkArena = [&](const util::IndexList &list,
                                uint64_t segment) {
        list.checkInvariants();
        for (uint32_t n = list.head(); n != IndexList::kNull;
             n = list.next(n)) {
            const PolicyState *st = index.find(list.value(n));
            SIEVE_CHECK(st != nullptr,
                        "order-book block %llx is not resident",
                        static_cast<unsigned long long>(list.value(n)));
            SIEVE_CHECK(static_cast<uint32_t>(st->primary) == n,
                        "block %llx links node %llu, found at node %u",
                        static_cast<unsigned long long>(list.value(n)),
                        static_cast<unsigned long long>(st->primary), n);
            if (segment != static_cast<uint64_t>(-1))
                SIEVE_CHECK(st->secondary == segment,
                            "block %llx carries segment %llu, its "
                            "arena expects %llu",
                            static_cast<unsigned long long>(
                                    list.value(n)),
                            static_cast<unsigned long long>(
                                    st->secondary),
                            static_cast<unsigned long long>(segment));
        }
    };

    switch (spec.kind) {
      case EvictionKind::Lru:
      case EvictionKind::Fifo:
      case EvictionKind::Clock:
      case EvictionKind::Sieve: {
        order.checkInvariants();
        SIEVE_CHECK(order.size() == index.size(),
                    "order book tracks %zu blocks, cache holds %zu",
                    order.size(), index.size());
        bool hand_seen = hand == IndexList::kNull;
        for (uint32_t n = order.head(); n != IndexList::kNull;
             n = order.next(n)) {
            const PolicyState *st = index.find(order.value(n));
            SIEVE_CHECK(st != nullptr,
                        "order-book block %llx is not resident",
                        static_cast<unsigned long long>(order.value(n)));
            SIEVE_CHECK(static_cast<uint32_t>(st->primary) == n,
                        "block %llx links node %llu, found at node %u",
                        static_cast<unsigned long long>(order.value(n)),
                        static_cast<unsigned long long>(st->primary), n);
            if (spec.kind == EvictionKind::Clock ||
                spec.kind == EvictionKind::Sieve)
                SIEVE_CHECK(st->secondary <= 1,
                            "reference/visited bit out of range");
            hand_seen = hand_seen || n == hand;
        }
        SIEVE_CHECK(hand_seen, "hand points outside the order book");
        break;
      }
      case EvictionKind::Lfu:
        // One heap entry per resident block (distinct back-links make
        // the size match a bijection), in heap order, each carrying a
        // count in [1, true count].
        SIEVE_CHECK(lfu_heap.size() == index.size(),
                    "LFU heap tracks %zu blocks, cache holds %zu",
                    lfu_heap.size(), index.size());
        for (size_t i = 0; i < lfu_heap.size(); ++i) {
            const LfuEntry &e = lfu_heap[i];
            const auto block = static_cast<unsigned long long>(e.block);
            const PolicyState *st = index.find(e.block);
            SIEVE_CHECK(st != nullptr, "LFU heap block %llx is not resident",
                        block);
            SIEVE_CHECK(st->secondary == i,
                        "block %llx records heap slot %llu, is at %zu",
                        block, static_cast<unsigned long long>(st->secondary),
                        i);
            SIEVE_CHECK(e.count >= 1 && e.count <= st->primary,
                        "LFU heap count %llu for %llx outside [1, %llu]",
                        static_cast<unsigned long long>(e.count), block,
                        static_cast<unsigned long long>(st->primary));
            SIEVE_CHECK(e.seq < lfu_sequence,
                        "LFU sequence for %llx from the future", block);
            SIEVE_CHECK(i == 0 || !e.before(lfu_heap[(i - 1) / 2]),
                        "LFU heap order broken at slot %zu", i);
        }
        break;
      case EvictionKind::Random:
        SIEVE_CHECK(pool.size() == index.size(),
                    "victim pool tracks %zu blocks, cache holds %zu",
                    pool.size(), index.size());
        for (size_t i = 0; i < pool.size(); ++i) {
            const PolicyState *st = index.find(pool[i]);
            SIEVE_CHECK(st != nullptr,
                        "pooled block %llx is not resident",
                        static_cast<unsigned long long>(pool[i]));
            SIEVE_CHECK(st->primary == i,
                        "block %llx records pool slot %llu, is at %zu",
                        static_cast<unsigned long long>(pool[i]),
                        static_cast<unsigned long long>(st->primary), i);
        }
        break;
      case EvictionKind::Arc:
        SIEVE_CHECK(order.size() + order2.size() == index.size(),
                    "ARC lists track %zu + %zu blocks, cache holds %zu",
                    order.size(), order2.size(), index.size());
        checkArena(order, 1);
        checkArena(order2, 2);
        SIEVE_CHECK(arc_p <= capacity_blocks,
                    "ARC target %llu exceeds capacity %llu",
                    static_cast<unsigned long long>(arc_p),
                    static_cast<unsigned long long>(capacity_blocks));
        ghost_recent->checkInvariants();
        ghost_frequent->checkInvariants();
        // A resident key must never appear in a ghost directory:
        // every path into residency erases its ghost entry first.
        index.forEach([&](uint64_t key, const PolicyState &) {
            SIEVE_CHECK(!ghost_recent->contains(key) &&
                                !ghost_frequent->contains(key),
                        "resident block %llx in a ghost directory",
                        static_cast<unsigned long long>(key));
        });
        break;
      case EvictionKind::TinyLfu:
        SIEVE_CHECK(order.size() + order2.size() + order3.size() ==
                            index.size(),
                    "TinyLFU segments track %zu + %zu + %zu blocks, "
                    "cache holds %zu",
                    order.size(), order2.size(), order3.size(),
                    index.size());
        SIEVE_CHECK(order.size() <= tlfu.window_cap,
                    "window holds %zu blocks, cap is %llu",
                    order.size(),
                    static_cast<unsigned long long>(tlfu.window_cap));
        SIEVE_CHECK(order3.size() <= tlfu.protected_cap,
                    "protected segment holds %zu blocks, cap is %llu",
                    order3.size(),
                    static_cast<unsigned long long>(
                            tlfu.protected_cap));
        checkArena(order, 0);
        checkArena(order2, 1);
        checkArena(order3, 2);
        sketch->checkInvariants();
        ghost_recent->checkInvariants();
        break;
    }
}

} // namespace cache
} // namespace sievestore

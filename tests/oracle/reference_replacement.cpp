#include "oracle/reference_replacement.hpp"

#include <algorithm>

#include "core/auto_tune.hpp"
#include "core/rand_sieve.hpp"
#include "core/sievestore_c.hpp"
#include "core/unsieved.hpp"
#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace oracle {

using cache::EvictionKind;
using cache::EvictionSpec;
using cache::ReplacementPolicy;
using trace::BlockId;

// The node-based policies allocate per insert by design. BlockCache
// arms its no-alloc regions only for the flat engine, so a cache
// running one of these in custom mode runs unguarded.
void
ReferenceLruPolicy::onInsert(BlockId block)
{
    order.push_front(block);
    if (!where.emplace(block, order.begin()).second)
        util::panic("LRU: duplicate insert of block %llx",
                    static_cast<unsigned long long>(block));
}

void
ReferenceLruPolicy::onAccess(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("LRU: access to non-resident block");
    order.splice(order.begin(), order, it->second);
}

void
ReferenceLruPolicy::onErase(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("LRU: erase of non-resident block");
    order.erase(it->second);
    where.erase(it);
}

BlockId
ReferenceLruPolicy::victim()
{
    if (order.empty())
        util::panic("LRU: victim() on empty cache");
    return order.back();
}

uint64_t
ReferenceLruPolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(where) +
           util::listFootprintBytes(order);
}

void
ReferenceFifoPolicy::onAccess(BlockId block)
{
    if (!where.count(block))
        util::panic("FIFO: access to non-resident block");
    // Insertion order is preserved: hits do not promote.
}

ReferenceRandomPolicy::ReferenceRandomPolicy(uint64_t seed)
    : rng(seed)
{
}

void
ReferenceRandomPolicy::onInsert(BlockId block)
{
    if (!index.emplace(block, pool.size()).second)
        util::panic("Random: duplicate insert");
    pool.push_back(block);
}

void
ReferenceRandomPolicy::onAccess(BlockId block)
{
    if (!index.count(block))
        util::panic("Random: access to non-resident block");
}

void
ReferenceRandomPolicy::onErase(BlockId block)
{
    const auto it = index.find(block);
    if (it == index.end())
        util::panic("Random: erase of non-resident block");
    const size_t pos = it->second;
    const BlockId last = pool.back();
    pool[pos] = last;
    index[last] = pos;
    pool.pop_back();
    index.erase(it);
}

BlockId
ReferenceRandomPolicy::victim()
{
    if (pool.empty())
        util::panic("Random: victim() on empty cache");
    return pool[rng.nextBelow(pool.size())];
}

uint64_t
ReferenceRandomPolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(index) +
           util::vectorFootprintBytes(pool);
}

void
ReferenceLfuPolicy::onInsert(BlockId block)
{
    if (!entries.emplace(block, Entry{1, next_sequence++}).second)
        util::panic("LFU: duplicate insert");
}

void
ReferenceLfuPolicy::onAccess(BlockId block)
{
    const auto it = entries.find(block);
    if (it == entries.end())
        util::panic("LFU: access to non-resident block");
    ++it->second.count;
}

void
ReferenceLfuPolicy::onErase(BlockId block)
{
    if (!entries.erase(block))
        util::panic("LFU: erase of non-resident block");
}

BlockId
ReferenceLfuPolicy::victim()
{
    if (entries.empty())
        util::panic("LFU: victim() on empty cache");
    // Linear scan; LFU is a reference policy, not a hot path.
    const std::pair<const BlockId, Entry> *best = nullptr;
    for (const auto &kv : entries) {
        if (!best || kv.second.count < best->second.count ||
            (kv.second.count == best->second.count &&
             kv.second.sequence < best->second.sequence)) {
            best = &kv;
        }
    }
    return best->first;
}

uint64_t
ReferenceLfuPolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(entries);
}

void
ReferenceClockPolicy::onInsert(BlockId block)
{
    // Insert behind the hand so the new entry is inspected last.
    const auto pos = hand == ring.end() ? ring.end() : hand;
    const auto it = ring.insert(pos, Entry{block, true});
    if (!where.emplace(block, it).second)
        util::panic("CLOCK: duplicate insert");
}

void
ReferenceClockPolicy::onAccess(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("CLOCK: access to non-resident block");
    it->second->referenced = true;
}

void
ReferenceClockPolicy::onErase(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("CLOCK: erase of non-resident block");
    if (hand == it->second)
        ++hand;
    ring.erase(it->second);
    where.erase(it);
}

BlockId
ReferenceClockPolicy::victim()
{
    if (ring.empty())
        util::panic("CLOCK: victim() on empty cache");
    while (true) {
        if (hand == ring.end())
            hand = ring.begin();
        if (hand->referenced) {
            hand->referenced = false;
            ++hand;
        } else {
            return hand->block;
        }
    }
}

uint64_t
ReferenceClockPolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(where) +
           util::listFootprintBytes(ring);
}

void
ReferenceSievePolicy::onInsert(BlockId block)
{
    queue.push_front(block);
    if (!where.emplace(block, Entry{queue.begin(), false}).second)
        util::panic("SIEVE: duplicate insert of block %llx",
                    static_cast<unsigned long long>(block));
}

void
ReferenceSievePolicy::onAccess(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("SIEVE: access to non-resident block");
    it->second.visited = true;
}

void
ReferenceSievePolicy::onErase(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("SIEVE: erase of non-resident block");
    if (hand == it->second.it)
        hand = stepTowardHead(hand);
    queue.erase(it->second.it);
    where.erase(it);
}

BlockId
ReferenceSievePolicy::victim()
{
    if (queue.empty())
        util::panic("SIEVE: victim() on empty cache");
    auto it = hand;
    while (true) {
        if (it == queue.end())
            it = std::prev(queue.end()); // (re)start from the tail
        Entry &entry = where.find(*it)->second;
        if (entry.visited) {
            entry.visited = false;
            it = stepTowardHead(it);
        } else {
            hand = stepTowardHead(it);
            return *it;
        }
    }
}

uint64_t
ReferenceSievePolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(where) +
           util::listFootprintBytes(queue);
}

ReferenceArcPolicy::ReferenceArcPolicy(uint64_t capacity_blocks)
    : capacity(capacity_blocks), b1(capacity_blocks),
      b2(capacity_blocks)
{
}

void
ReferenceArcPolicy::adapt(BlockId incoming)
{
    const bool in_b1 = b1.contains(incoming);
    const bool in_b2 = !in_b1 && b2.contains(incoming);
    last_in_b2 = in_b2;
    if (in_b1) {
        const uint64_t delta =
            std::max<uint64_t>(1, b2.size() / b1.size());
        p = std::min(capacity, p + delta);
        b1.erase(incoming);
        to_t2 = true;
    } else if (in_b2) {
        const uint64_t delta =
            std::max<uint64_t>(1, b1.size() / b2.size());
        p = p > delta ? p - delta : 0;
        b2.erase(incoming);
        to_t2 = true;
    } else {
        to_t2 = false;
    }
    prepared = true;
}

void
ReferenceArcPolicy::onInsert(BlockId block)
{
    // batchReplace installs (and below-capacity warmup) reach here
    // without a victimFor call; run the ghost-hit adaptation now.
    if (!prepared)
        adapt(block);
    prepared = false;
    auto &list = to_t2 ? t2 : t1;
    list.push_front(block);
    if (!where
             .emplace(block,
                      Entry{static_cast<uint8_t>(to_t2 ? 2 : 1),
                            list.begin()})
             .second)
        util::panic("ARC: duplicate insert of block %llx",
                    static_cast<unsigned long long>(block));
}

void
ReferenceArcPolicy::onAccess(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("ARC: access to non-resident block");
    if (it->second.list_id == 1) {
        // First re-reference: promote T1 -> T2 MRU.
        t2.splice(t2.begin(), t1, it->second.it);
        it->second.list_id = 2;
    } else {
        t2.splice(t2.begin(), t2, it->second.it);
    }
}

void
ReferenceArcPolicy::onErase(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("ARC: erase of non-resident block");
    const bool was_t1 = it->second.list_id == 1;
    (was_t1 ? t1 : t2).erase(it->second.it);
    where.erase(it);
    if (suppress_ghost) {
        suppress_ghost = false;
        return;
    }
    (was_t1 ? b1 : b2).insert(block);
}

BlockId
ReferenceArcPolicy::victim()
{
    // Adaptation-free REPLACE peek; real evictions flow through
    // victimFor so ghost hits can steer p first.
    if (where.empty())
        util::panic("ARC: victim() on empty cache");
    if (!t1.empty() && (t2.empty() || t1.size() > p))
        return t1.back();
    return t2.back();
}

BlockId
ReferenceArcPolicy::victimFor(BlockId incoming)
{
    if (where.empty())
        util::panic("ARC: victimFor() on empty cache");
    adapt(incoming);
    if (!to_t2) {
        // Case IV: the incoming key is in neither ghost directory, so
        // make directory room per the paper (>= instead of == guards
        // the transient L1 overshoot a batchReplace refill creates).
        const uint64_t l1 = t1.size() + b1.size();
        if (l1 >= capacity) {
            if (t1.size() < capacity) {
                b1.popOldest();
            } else {
                // T1 alone fills the cache: evict its LRU with no
                // ghost record (the canonical IV(a) inner arm).
                suppress_ghost = true;
                return t1.back();
            }
        } else if (t1.size() + t2.size() + b1.size() + b2.size() >=
                   2 * capacity) {
            b2.popOldest();
        }
    }
    // REPLACE(x, p): pick the side whose share exceeds its target.
    if (!t1.empty() &&
        (t2.empty() || t1.size() > p ||
         (last_in_b2 && t1.size() == p)))
        return t1.back();
    return t2.back();
}

uint64_t
ReferenceArcPolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(where) +
           util::listFootprintBytes(t1) + util::listFootprintBytes(t2) +
           b1.memoryBytes() + b2.memoryBytes();
}

ReferenceTinyLfuPolicy::ReferenceTinyLfuPolicy(uint64_t capacity_blocks,
                                               uint64_t seed)
    : window_cap(0), protected_cap(0), sketch(capacity_blocks, seed),
      rejected(std::max<uint64_t>(1, capacity_blocks))
{
    const cache::TinyLfuShape shape = cache::tinyLfuShape(capacity_blocks);
    window_cap = shape.window_cap;
    protected_cap = shape.protected_cap;
}

std::list<BlockId> &
ReferenceTinyLfuPolicy::segmentList(Segment segment)
{
    switch (segment) {
      case kWindow:
        return window;
      case kProbation:
        return probation;
      case kProtected:
        return protected_seg;
    }
    SIEVE_UNREACHABLE("unknown TinyLFU segment");
}

void
ReferenceTinyLfuPolicy::onInsert(BlockId block)
{
    sketch.add(block);
    // A key we rejected recently gets a second sketch vote, so a
    // prompt re-reference can win the next admission contest.
    if (rejected.erase(block))
        sketch.add(block);
    window.push_front(block);
    if (!where.emplace(block, Entry{kWindow, window.begin()}).second)
        util::panic("W-TinyLFU: duplicate insert of block %llx",
                    static_cast<unsigned long long>(block));
    if (window.size() > window_cap) {
        // Below-capacity growth: window overflow drains into
        // probation (at capacity victimFor already made room, so the
        // window lands exactly on its cap).
        const BlockId demoted = window.back();
        probation.splice(probation.begin(), window,
                         std::prev(window.end()));
        where[demoted].segment = kProbation;
    }
}

void
ReferenceTinyLfuPolicy::onAccess(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("W-TinyLFU: access to non-resident block");
    sketch.add(block);
    switch (it->second.segment) {
      case kWindow:
        window.splice(window.begin(), window, it->second.it);
        break;
      case kProbation:
        // Promote into protected; over-cap demotes the protected LRU
        // back to probation MRU (at protected_cap == 0 the promoted
        // block demotes itself, netting a probation move-to-front).
        protected_seg.splice(protected_seg.begin(), probation,
                             it->second.it);
        it->second.segment = kProtected;
        if (protected_seg.size() > protected_cap) {
            const BlockId demoted = protected_seg.back();
            probation.splice(probation.begin(), protected_seg,
                             std::prev(protected_seg.end()));
            where[demoted].segment = kProbation;
        }
        break;
      case kProtected:
        protected_seg.splice(protected_seg.begin(), protected_seg,
                             it->second.it);
        break;
    }
}

void
ReferenceTinyLfuPolicy::onErase(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("W-TinyLFU: erase of non-resident block");
    segmentList(it->second.segment).erase(it->second.it);
    where.erase(it);
}

BlockId
ReferenceTinyLfuPolicy::victim()
{
    if (where.empty())
        util::panic("W-TinyLFU: victim() on empty cache");
    if (window.empty()) {
        // Degenerate shape (external erases drained the window):
        // evict from the main region directly.
        return probation.empty() ? protected_seg.back()
                                 : probation.back();
    }
    const BlockId candidate = window.back();
    if (probation.empty() && protected_seg.empty())
        return candidate;
    const BlockId main_victim =
        probation.empty() ? protected_seg.back() : probation.back();
    if (sketch.estimate(candidate) > sketch.estimate(main_victim)) {
        // Candidate admitted: it takes the main region's place and
        // the main victim is evicted.
        probation.splice(probation.begin(), window,
                         std::prev(window.end()));
        where[candidate].segment = kProbation;
        return main_victim;
    }
    rejected.insert(candidate);
    return candidate;
}

uint64_t
ReferenceTinyLfuPolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(where) +
           util::listFootprintBytes(window) +
           util::listFootprintBytes(probation) +
           util::listFootprintBytes(protected_seg) +
           sketch.memoryBytes() + rejected.memoryBytes();
}

std::unique_ptr<ReplacementPolicy>
makeReferencePolicy(EvictionSpec spec, uint64_t capacity_blocks)
{
    switch (spec.kind) {
      case EvictionKind::Lru:
        return std::make_unique<ReferenceLruPolicy>();
      case EvictionKind::Fifo:
        return std::make_unique<ReferenceFifoPolicy>();
      case EvictionKind::Clock:
        return std::make_unique<ReferenceClockPolicy>();
      case EvictionKind::Lfu:
        return std::make_unique<ReferenceLfuPolicy>();
      case EvictionKind::Random:
        return std::make_unique<ReferenceRandomPolicy>(spec.seed);
      case EvictionKind::Sieve:
        return std::make_unique<ReferenceSievePolicy>();
      case EvictionKind::Arc:
        return std::make_unique<ReferenceArcPolicy>(capacity_blocks);
      case EvictionKind::TinyLfu:
        return std::make_unique<ReferenceTinyLfuPolicy>(
            capacity_blocks, spec.seed);
    }
    SIEVE_UNREACHABLE("unknown EvictionKind");
}


std::unique_ptr<core::AllocationPolicy>
makeReferenceSievePolicy(const core::SievePolicySpec &spec)
{
    using core::SieveKind;
    switch (spec.kind) {
      case SieveKind::Aod:
        return std::make_unique<core::AodPolicy>();
      case SieveKind::Wmna:
        return std::make_unique<core::WmnaPolicy>();
      case SieveKind::SieveStoreC:
        return std::make_unique<core::SieveStoreCPolicy>(spec.sieve_c);
      case SieveKind::RandSieveC:
        return std::make_unique<core::RandSieveCPolicy>(
            spec.rand_probability, spec.rand_seed);
      case SieveKind::Adaptive:
        return std::make_unique<core::AdaptiveSievePolicy>(spec.adaptive);
    }
    util::fatal("makeReferenceSievePolicy: unknown sieve kind %d",
                static_cast<int>(spec.kind));
}

} // namespace oracle
} // namespace sievestore

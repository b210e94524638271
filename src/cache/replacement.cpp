#include "cache/replacement.hpp"

#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace cache {

using trace::BlockId;

const char *
evictionKindName(EvictionKind kind)
{
    switch (kind) {
      case EvictionKind::Lru:
        return "LRU";
      case EvictionKind::Fifo:
        return "FIFO";
      case EvictionKind::Clock:
        return "CLOCK";
      case EvictionKind::Lfu:
        return "LFU";
      case EvictionKind::Random:
        return "Random";
      case EvictionKind::Sieve:
        return "SIEVE";
      case EvictionKind::Arc:
        return "ARC";
      case EvictionKind::TinyLfu:
        return "W-TinyLFU";
    }
    SIEVE_UNREACHABLE("unknown EvictionKind");
}

// SIEVE_MAY_ALLOC: the recency list and index allocate per insert.
// BlockCache arms its no-alloc regions only for the flat engine, so
// a cache running this policy in custom mode runs unguarded.
void SIEVE_MAY_ALLOC
OracleRetainPolicy::onInsert(BlockId block)
{
    order.push_front(block);
    if (!where.emplace(block, order.begin()).second)
        util::panic("OracleRetain: duplicate insert of block %llx",
                    static_cast<unsigned long long>(block));
}

void
OracleRetainPolicy::onAccess(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("OracleRetain: access to non-resident block");
    order.splice(order.begin(), order, it->second);
}

void
OracleRetainPolicy::onErase(BlockId block)
{
    const auto it = where.find(block);
    if (it == where.end())
        util::panic("OracleRetain: erase of non-resident block");
    order.erase(it->second);
    where.erase(it);
}

void
OracleRetainPolicy::setProtected(
        std::unordered_set<BlockId> protected_set)
{
    protected_blocks = std::move(protected_set);
}

BlockId
OracleRetainPolicy::victim()
{
    if (order.empty())
        util::panic("OracleRetain: victim() on empty cache");
    // Scan from the cold end; protected blocks encountered there are
    // rotated to the hot end so repeated evictions do not rescan them
    // (amortized O(1) per eviction). They are protected anyway, so the
    // promotion cannot change which blocks survive.
    size_t scanned = 0;
    const size_t limit = order.size();
    while (scanned++ < limit) {
        const auto cold = std::prev(order.end());
        if (!protected_blocks.count(*cold))
            return *cold;
        order.splice(order.begin(), order, cold);
    }
    // Everything is protected: fall back to plain LRU.
    return order.back();
}

uint64_t
OracleRetainPolicy::memoryBytes() const
{
    return util::unorderedFootprintBytes(where) +
           util::listFootprintBytes(order) +
           util::unorderedFootprintBytes(protected_blocks);
}

} // namespace cache
} // namespace sievestore

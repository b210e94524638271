#include "oracle/reference_access_counter.hpp"

#include <algorithm>

namespace sievestore {
namespace oracle {

using analysis::BlockCount;

void
ReferenceAccessCounter::observe(trace::BlockId block)
{
    ++*counts_.findOrInsert(block).first;
}

void
ReferenceAccessCounter::observeBatch(std::span<const trace::BlockId> blocks)
{
    for (const trace::BlockId block : blocks)
        counts_.prefetch(block);
    for (const trace::BlockId block : blocks)
        observe(block);
}

uint64_t
ReferenceAccessCounter::count(trace::BlockId block) const
{
    const uint64_t *c = counts_.find(block);
    return c ? *c : 0;
}

uint64_t
ReferenceAccessCounter::totalAccesses() const
{
    uint64_t total = 0;
    counts_.forEach([&](uint64_t, const uint64_t &c) { total += c; });
    return total;
}

std::vector<BlockCount>
ReferenceAccessCounter::sortedByCount() const
{
    return countsAtLeast(0);
}

std::vector<BlockCount>
ReferenceAccessCounter::countsAtLeast(uint64_t threshold) const
{
    std::vector<BlockCount> out;
    out.reserve(counts_.size());
    counts_.forEach([&](uint64_t block, const uint64_t &c) {
        if (c >= threshold)
            out.push_back(BlockCount{block, c});
    });
    analysis::sortDescendingByCount(out);
    return out;
}

std::vector<trace::BlockId>
ReferenceAccessCounter::sortedBlocks() const
{
    std::vector<trace::BlockId> out;
    out.reserve(counts_.size());
    counts_.forEach([&](uint64_t block, const uint64_t &) {
        out.push_back(block);
    });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace oracle
} // namespace sievestore

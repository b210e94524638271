#include "analysis/access_counter.hpp"

#include <algorithm>

#include "util/alloc_guard.hpp"
#include "util/check.hpp"

namespace sievestore {
namespace analysis {

BlockCounts
countBlockAccesses(const std::vector<trace::Request> &requests)
{
    BlockCounts counts;
    for (const auto &req : requests)
        for (uint32_t i = 0; i < req.length_blocks; ++i)
            ++counts[req.blockAt(i)];
    return counts;
}

uint64_t
totalAccesses(const BlockCounts &counts)
{
    uint64_t total = 0;
    for (const auto &kv : counts)
        total += kv.second;
    return total;
}

void
sortDescendingByCount(std::vector<BlockCount> &counts)
{
    std::sort(counts.begin(), counts.end(),
              [](const BlockCount &a, const BlockCount &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  return a.block < b.block;
              });
}

std::vector<BlockCount>
sortedByCount(const BlockCounts &counts)
{
    std::vector<BlockCount> out;
    out.reserve(counts.size());
    for (const auto &kv : counts)
        out.push_back(BlockCount{kv.first, kv.second});
    sortDescendingByCount(out);
    return out;
}

namespace {

/** Position of `block` within its 4 KB page's counts. */
size_t
laneOf(trace::BlockId block)
{
    return static_cast<size_t>(trace::blockNrOf(block) %
                               trace::kBlocksPerPage);
}

} // namespace

AccessCounter::PageCounts &
AccessCounter::pageCounts(trace::BlockId block)
{
    // While the table has headroom a page probe must not allocate;
    // only growth past the 7/8 load bound may.
    SIEVE_ASSERT_NO_ALLOC_WHEN(pages_.hasCapacityFor(1));
    return *pages_.findOrInsert(trace::pageStart(block)).first;
}

void
AccessCounter::bump(PageCounts &page, trace::BlockId block)
{
    uint32_t &c = page.blocks[laneOf(block)];
    if (c == 0)
        ++blocks_;
    c = saturatingIncrement(c);
}

void
AccessCounter::observe(trace::BlockId block)
{
    bump(pageCounts(block), block);
}

void
AccessCounter::observeBatch(std::span<const trace::BlockId> blocks)
{
    // Hash-ahead over page runs: every run's home slot starts toward
    // L1 before the first findOrInsert issues its dependent load, then
    // each run is one probe and up to eight bumps. Probing in batch
    // order keeps the table's insert history (and so its slot layout)
    // that of N scalar observe() calls.
    const auto runEnd = [&](size_t i) {
        const trace::BlockId page = trace::pageStart(blocks[i]);
        size_t end = i + 1;
        while (end < blocks.size() && trace::pageStart(blocks[end]) == page)
            ++end;
        return end;
    };
    for (size_t i = 0; i < blocks.size(); i = runEnd(i))
        pages_.prefetch(trace::pageStart(blocks[i]));
    for (size_t i = 0; i < blocks.size();) {
        const size_t end = runEnd(i);
        PageCounts &page = pageCounts(blocks[i]);
        for (; i < end; ++i)
            bump(page, blocks[i]);
    }
}

template <typename Fn>
void
AccessCounter::forEachBlock(Fn &&fn) const
{
    pages_.forEach([&](uint64_t page, const PageCounts &counts) {
        for (size_t lane = 0; lane < counts.blocks.size(); ++lane)
            if (counts.blocks[lane] != 0)
                fn(page + lane, counts.blocks[lane]);
    });
}

// SIEVE_NOALLOC: reads are pure probes; the analyzer proves the
// whole call tree below is allocation-free.
SIEVE_NOALLOC uint64_t
AccessCounter::count(trace::BlockId block) const
{
    const PageCounts *page = pages_.find(trace::pageStart(block));
    return page ? page->blocks[laneOf(block)] : 0;
}

uint64_t
AccessCounter::totalAccesses() const
{
    uint64_t total = 0;
    forEachBlock([&](trace::BlockId, uint32_t c) { total += c; });
    return total;
}

std::vector<BlockCount>
AccessCounter::sortedByCount() const
{
    return countsAtLeast(0);
}

std::vector<BlockCount>
AccessCounter::countsAtLeast(uint64_t threshold) const
{
    std::vector<BlockCount> out;
    out.reserve(blocks_);
    forEachBlock([&](trace::BlockId block, uint32_t c) {
        if (c >= threshold)
            out.push_back(BlockCount{block, c});
    });
    sortDescendingByCount(out);
    return out;
}

std::vector<trace::BlockId>
AccessCounter::sortedBlocks() const
{
    std::vector<trace::BlockId> out;
    out.reserve(blocks_);
    forEachBlock([&](trace::BlockId block, uint32_t) {
        out.push_back(block);
    });
    std::sort(out.begin(), out.end());
    return out;
}

void
AccessCounter::checkInvariants() const
{
    pages_.checkInvariants();
    size_t nonzero = 0;
    pages_.forEach([&](uint64_t page, const PageCounts &counts) {
        SIEVE_CHECK(trace::pageStart(page) == page,
                    "counter key %llx is not page-aligned",
                    static_cast<unsigned long long>(page));
        size_t live = 0;
        for (const uint32_t c : counts.blocks)
            live += c != 0;
        SIEVE_CHECK(live != 0, "page %llx is stored with no counts",
                    static_cast<unsigned long long>(page));
        nonzero += live;
    });
    SIEVE_CHECK(nonzero == blocks_,
                "distinct-block tally %zu, but %zu nonzero counts",
                blocks_, nonzero);
}

} // namespace analysis
} // namespace sievestore

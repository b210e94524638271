#include "core/discrete.hpp"

#include <algorithm>

#include "analysis/popularity.hpp"
#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace core {

using trace::BlockId;

AdbaSelector::AdbaSelector(uint64_t threshold)
    : threshold_(threshold)
{
    if (threshold_ == 0)
        util::fatal("ADBA threshold must be >= 1");
}

AdbaSelector::AdbaSelector(uint64_t threshold,
                           const std::string &log_directory,
                           analysis::AccessLogConfig log_config)
    : threshold_(threshold),
      disk_log(std::make_unique<analysis::AccessLog>(log_directory,
                                                     log_config))
{
    if (threshold_ == 0)
        util::fatal("ADBA threshold must be >= 1");
}

// SIEVE_MAY_ALLOC: the selector's disk log and counters grow
// amortized buffers. The appliance arms its batch-level no-alloc
// region only for flat continuous configurations (no selector), so
// the region never covers this path.
void SIEVE_MAY_ALLOC
AdbaSelector::observe(const trace::BlockAccess &access)
{
    if (disk_log)
        disk_log->log(access.block);
    else
        mem_counts.observe(access.block);
}

void
AdbaSelector::observeBatch(std::span<const trace::BlockAccess> accesses)
{
    if (disk_log) {
        // The disk backend appends to a sequential log — no table to
        // hash ahead into; the scalar loop is already streaming.
        DiscreteSelector::observeBatch(accesses);
        return;
    }
    // In-memory backend: strip the accesses down to block ids in
    // stack-sized chunks and run the counter's hash-ahead batch path.
    constexpr size_t kChunk = util::FlatIndex<uint64_t>::kBatchChunk;
    BlockId blocks[kChunk];
    for (size_t base = 0; base < accesses.size(); base += kChunk) {
        const size_t n = std::min(kChunk, accesses.size() - base);
        for (size_t i = 0; i < n; ++i)
            blocks[i] = accesses[base + i].block;
        mem_counts.observeBatch(std::span<const BlockId>(blocks, n));
    }
}

std::vector<BlockId>
AdbaSelector::endOfEpoch()
{
    std::vector<BlockId> selected;
    if (disk_log) {
        for (const auto &bc : disk_log->reduce(threshold_))
            selected.push_back(bc.block);
        disk_log->beginEpoch();
    } else {
        const std::vector<analysis::BlockCount> qualifying =
            mem_counts.countsAtLeast(threshold_);
        selected.reserve(qualifying.size());
        for (const auto &bc : qualifying)
            selected.push_back(bc.block);
        mem_counts.clear();
    }
    return selected;
}

uint64_t
AdbaSelector::metastateBytes() const
{
    // The disk-backed variant keeps counts out of memory by design.
    return disk_log ? 0 : mem_counts.memoryBytes();
}

void
AdbaSelector::reserveEpochBlocks(size_t blocks)
{
    if (!disk_log)
        mem_counts.reserve(blocks);
}

void
AdbaSelector::checkInvariants() const
{
    SIEVE_CHECK(threshold_ >= 1, "ADBA threshold must be >= 1");
    mem_counts.checkInvariants();
    // The two counting backends are exclusive: a disk-backed selector
    // must never accumulate in-memory counts.
    if (disk_log)
        SIEVE_CHECK(mem_counts.empty(),
                    "disk-backed ADBA accumulated %zu in-memory counts",
                    mem_counts.uniqueBlocks());
}

RandomBlockSelector::RandomBlockSelector(double fraction_, uint64_t seed)
    : fraction(fraction_), rng(seed)
{
    if (fraction <= 0.0 || fraction > 1.0)
        util::fatal("RandSieve-BlkD fraction must be in (0, 1]");
}

void
RandomBlockSelector::observe(const trace::BlockAccess &access)
{
    seen.observe(access.block);
}

std::vector<BlockId>
RandomBlockSelector::endOfEpoch()
{
    // Deterministic ordering before sampling so results do not depend
    // on hash-table iteration order.
    std::vector<BlockId> all = seen.sortedBlocks();
    seen.clear();
    size_t k = static_cast<size_t>(fraction *
                                   static_cast<double>(all.size()));
    if (k == 0 && !all.empty())
        k = 1;
    // Partial Fisher-Yates: the first k entries become the sample.
    for (size_t i = 0; i < k; ++i) {
        const size_t j = i + static_cast<size_t>(
                                 rng.nextBelow(all.size() - i));
        std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
}

uint64_t
RandomBlockSelector::metastateBytes() const
{
    return seen.memoryBytes();
}

void
RandomBlockSelector::reserveEpochBlocks(size_t blocks)
{
    seen.reserve(blocks);
}

void
RandomBlockSelector::checkInvariants() const
{
    SIEVE_CHECK(fraction > 0.0 && fraction <= 1.0,
                "RandSieve-BlkD fraction %f out of (0, 1]", fraction);
    seen.checkInvariants();
}

TopPercentSelector::TopPercentSelector(double fraction_)
    : fraction(fraction_)
{
    if (fraction <= 0.0 || fraction > 1.0)
        util::fatal("TopPercentSelector fraction must be in (0, 1]");
}

void
TopPercentSelector::observe(const trace::BlockAccess &access)
{
    counts.observe(access.block);
}

std::vector<BlockId>
TopPercentSelector::endOfEpoch()
{
    analysis::PopularityProfile profile(counts.sortedByCount(), 1);
    std::vector<BlockId> top = profile.topBlocks(fraction);
    counts.clear();
    return top;
}

uint64_t
TopPercentSelector::metastateBytes() const
{
    return counts.memoryBytes();
}

void
TopPercentSelector::reserveEpochBlocks(size_t blocks)
{
    counts.reserve(blocks);
}

void
TopPercentSelector::checkInvariants() const
{
    SIEVE_CHECK(fraction > 0.0 && fraction <= 1.0,
                "TopPercent fraction %f out of (0, 1]", fraction);
    counts.checkInvariants();
}

OracleDaySelector::OracleDaySelector(
        std::vector<std::vector<BlockId>> day_sets_, int first_day)
    : day_sets(std::move(day_sets_)), next_day(first_day + 1)
{
}

void
OracleDaySelector::observe(const trace::BlockAccess &)
{
    // Nothing to learn: the oracle already knows the future.
}

std::vector<BlockId>
OracleDaySelector::endOfEpoch()
{
    if (next_day < 0 ||
        static_cast<size_t>(next_day) >= day_sets.size()) {
        ++next_day;
        return {};
    }
    return day_sets[static_cast<size_t>(next_day++)];
}

} // namespace core
} // namespace sievestore

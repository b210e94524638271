#include "core/imct.hpp"

#include "util/alloc_guard.hpp"
#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"
#include "util/prefetch.hpp"

namespace sievestore {
namespace core {

Imct::Imct(size_t slots, WindowSpec window, uint64_t seed_)
    : spec(window), seed(seed_)
{
    spec.validate();
    if (slots == 0)
        util::fatal("IMCT requires at least one slot");
    table.resize(slots);
}

size_t
Imct::slotOf(trace::BlockId block) const
{
    return static_cast<size_t>(
        util::reduceRange(util::seededHash(block, seed), table.size()));
}

void
Imct::prefetch(trace::BlockId block) const
{
    util::prefetchRead(table.data() + slotOf(block));
}

uint32_t
Imct::recordMiss(trace::BlockId block, util::TimeUs t)
{
    // The IMCT is the bounded-metastate tier: a fixed array indexed
    // by a hash. Every miss is O(1) with zero allocation, enforced.
    SIEVE_ASSERT_NO_ALLOC;
    return table[slotOf(block)].record(spec.subwindowOf(t), spec);
}

uint32_t
Imct::count(trace::BlockId block, util::TimeUs t) const
{
    SIEVE_ASSERT_NO_ALLOC;
    return table[slotOf(block)].total(spec.subwindowOf(t), spec);
}

uint64_t
Imct::memoryBytes() const
{
    return util::vectorFootprintBytes(table);
}

void
Imct::clear()
{
    for (auto &c : table)
        c.clear();
}

void
Imct::checkInvariants() const
{
    SIEVE_CHECK(!table.empty(), "IMCT must have at least one slot");
    for (const auto &counter : table)
        counter.checkInvariants(spec);
    // Aliasing bound: probe keys across the address space all land
    // inside the table (reduceRange maps [0, 2^64) onto [0, slots)).
    for (uint64_t probe = 0; probe < 64; ++probe) {
        const trace::BlockId block = probe * 0x0123456789abcdefULL;
        SIEVE_CHECK(slotOf(block) < table.size(),
                    "IMCT slot mapping escaped the table");
    }
    SIEVE_CHECK(memoryBytes() >= table.size() * sizeof(WindowedCounter));
}

} // namespace core
} // namespace sievestore

#include "core/mct.hpp"

#include <algorithm>

#include "util/alloc_guard.hpp"
#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace core {

Mct::Mct(WindowSpec window)
    : spec(window)
{
    spec.validate();
}

bool
Mct::contains(trace::BlockId block) const
{
    SIEVE_ASSERT_NO_ALLOC;
    return entries.contains(block);
}

void
Mct::admit(trace::BlockId block, util::TimeUs t)
{
    if (!entries.hasCapacityFor(1)) {
        // Amortized table growth is admission's one legitimate
        // allocation. It must be exempted explicitly: admit() now runs
        // inside Appliance::processBatch's batch-wide no-alloc region,
        // which would otherwise flag the rehash.
        util::AllocGuardDisarm growth;
        const auto [counter, inserted] = entries.findOrInsert(block);
        if (inserted)
            counter->touch(spec.subwindowOf(t), spec);
        return;
    }
    // With room already reserved the insert must be a pure probe.
    SIEVE_ASSERT_NO_ALLOC;
    const auto [counter, inserted] = entries.findOrInsert(block);
    if (inserted)
        counter->touch(spec.subwindowOf(t), spec);
}

uint32_t
Mct::recordMiss(trace::BlockId block, util::TimeUs t)
{
    const uint32_t count = recordIfTracked(block, t);
    if (count == 0)
        util::panic("MCT: recordMiss for untracked block");
    return count;
}

uint32_t
Mct::recordIfTracked(trace::BlockId block, util::TimeUs t)
{
    // One probe per miss — the MCT's whole cost argument.
    SIEVE_ASSERT_NO_ALLOC;
    WindowedCounter *counter = entries.find(block);
    if (!counter)
        return 0;
    return counter->record(spec.subwindowOf(t), spec);
}

uint32_t
Mct::count(trace::BlockId block, util::TimeUs t) const
{
    SIEVE_ASSERT_NO_ALLOC;
    const WindowedCounter *counter = entries.find(block);
    if (!counter)
        return 0;
    return counter->total(spec.subwindowOf(t), spec);
}

void
Mct::remove(trace::BlockId block)
{
    entries.erase(block);
}

uint64_t
Mct::memoryBytes() const
{
    return entries.memoryBytes();
}

size_t
Mct::staleEntries(util::TimeUs t) const
{
    const uint32_t cur_sub = spec.subwindowOf(t);
    size_t stale = 0;
    entries.forEach([&](uint64_t, const WindowedCounter &counter) {
        if (counter.stale(cur_sub, spec))
            ++stale;
    });
    return stale;
}

void
Mct::checkInvariants() const
{
    entries.checkInvariants();
    entries.forEach([&](uint64_t, const WindowedCounter &counter) {
        counter.checkInvariants(spec);
    });
    SIEVE_CHECK(memoryBytes() >=
                entries.size() * (sizeof(trace::BlockId) +
                                  sizeof(WindowedCounter)));
}

void
Mct::prune(util::TimeUs t)
{
    // Tombstone-free backward-shift erase: pruning thousands of stale
    // entries per subwindow frees nothing and allocates nothing.
    SIEVE_ASSERT_NO_ALLOC;
    const uint32_t cur_sub = spec.subwindowOf(t);
    entries.eraseIf([&](uint64_t, const WindowedCounter &counter) {
        return counter.stale(cur_sub, spec);
    });
}

} // namespace core
} // namespace sievestore

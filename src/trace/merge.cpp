#include "trace/merge.hpp"

#include <cstddef>

namespace sievestore {
namespace trace {

MergedTrace::MergedTrace(std::vector<std::unique_ptr<TraceReader>> sources_)
    : sources(std::move(sources_)), runs(sources.size() * kRun),
      lanes(sources.size())
{
    live.reserve(sources.size());
    head_times.reserve(sources.size());
}

bool
MergedTrace::refill(size_t source)
{
    Lane &lane = lanes[source];
    lane.pos = 0;
    lane.len = sources[source]->nextBatch(
        std::span<Request>(runs.data() + source * kRun, kRun));
    return lane.len > 0;
}

void
MergedTrace::prime()
{
    live.clear();
    head_times.clear();
    for (size_t s = 0; s < sources.size(); ++s) {
        if (refill(s)) {
            live.push_back(s);
            head_times.push_back(runs[s * kRun].time);
        }
    }
    primed = true;
}

size_t
MergedTrace::nextBatch(std::span<Request> out)
{
    // The sources are arbitrary readers, and some allocate as they go
    // (the synthetic generator builds a day at a time), so the merge
    // makes no batch-wide no-alloc claim of its own.
    // sieve-lint: allow(batch-guard)
    if (!primed)
        prime();
    size_t produced = 0;
    while (produced < out.size() && !live.empty()) {
        // The earliest head. live is in ascending source order, so the
        // strict compare sends ties to the lower index; the selects
        // compile to conditional moves, since which source wins is
        // close to random from one request to the next.
        size_t best = 0;
        util::TimeUs best_time = head_times[0];
        for (size_t i = 1; i < live.size(); ++i) {
            const bool earlier = head_times[i] < best_time;
            best_time = earlier ? head_times[i] : best_time;
            best = earlier ? i : best;
        }
        const size_t s = live[best];
        Lane &lane = lanes[s];
        out[produced++] = runs[s * kRun + lane.pos++];
        if (lane.pos < lane.len || refill(s)) {
            head_times[best] = runs[s * kRun + lane.pos].time;
        } else {
            live.erase(live.begin() + static_cast<ptrdiff_t>(best));
            head_times.erase(head_times.begin() +
                             static_cast<ptrdiff_t>(best));
        }
    }
    return produced;
}

bool
MergedTrace::next(Request &out)
{
    return nextBatch(std::span<Request>(&out, 1)) == 1;
}

void
MergedTrace::reset()
{
    for (auto &s : sources)
        s->reset();
    primed = false;
}

} // namespace trace
} // namespace sievestore

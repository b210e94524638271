/**
 * @file
 * The batching pieces of the replay engine (replay(), sim/driver.hpp).
 *
 * The engine, behind every driver (runTrace, runSharded,
 * runShardedParallel, runPerServer), moves requests in batches:
 * TraceReader::nextBatch() decodes N requests per virtual call,
 * pumpBatches() slices each decoded batch at calendar-day boundaries
 * and emits day-end events between slices, and RequestBatcher
 * re-accumulates routed requests (per shard, per server) into
 * fixed-capacity bins so the downstream hand-off —
 * Appliance::processBatch, or one SPSC push — also happens once per
 * batch instead of once per request. Both pieces stay public so an
 * instrumented harness can rebuild the composition layer by layer.
 *
 * Day-end flush protocol: pumpBatches() never lets a slice straddle a
 * day boundary, and the engine flushes every partial RequestBatcher
 * bin *before* propagating a day-end event downstream. Batching
 * therefore changes only the grouping of the per-appliance request
 * stream, never its order or its interleaving with finishDay() —
 * which is what the differential suites (test_batch_pipeline,
 * test_parallel_replay) prove bit-identical to per-request replay.
 *
 * The single-day guarantee is also what lets processBatch run the
 * batched FlatIndex lookup kernel (probe-gather -> sieve-prefetch ->
 * decide; see DESIGN.md §12): the kernel hoists the day-report lookup
 * and arms its batch-wide no-alloc region once per slice, relying on
 * every request in the span landing in the same calendar day.
 */

#ifndef SIEVESTORE_SIM_BATCH_HPP
#define SIEVESTORE_SIM_BATCH_HPP

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "trace/trace_reader.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace sim {

/**
 * Drain `reader` in decode batches of `batch` requests, slicing each
 * batch at calendar-day boundaries.
 *
 * @param on_slice   invoked with each maximal single-day run of
 *                   requests (span into an internal buffer, valid for
 *                   the duration of the call)
 * @param on_day_end invoked once per crossed day boundary, with the
 *                   day being closed, strictly between the slices it
 *                   separates (including runs of empty days)
 *
 * Fatals on a non-time-ordered trace (a request whose calendar day
 * precedes an already-seen day) and on batch == 0.
 */
template <typename OnSlice, typename OnDayEnd>
void
pumpBatches(trace::TraceReader &reader, size_t batch, OnSlice &&on_slice,
            OnDayEnd &&on_day_end)
{
    if (batch == 0)
        util::fatal("batched replay requires a batch size >= 1");
    std::vector<trace::Request> buf(batch);
    bool any = false;
    int current_day = 0;
    for (;;) {
        const size_t n = reader.nextBatch({buf.data(), buf.size()});
        if (n == 0)
            break;
        size_t start = 0;
        while (start < n) {
            const int day =
                static_cast<int>(util::dayOf(buf[start].time));
            if (!any) {
                current_day = day;
                any = true;
            } else if (day < current_day) {
                util::fatal("trace is not time-ordered (day %d after %d)",
                            day, current_day);
            }
            while (current_day < day) {
                on_day_end(current_day);
                ++current_day;
            }
            size_t end = start + 1;
            while (end < n &&
                   static_cast<int>(util::dayOf(buf[end].time)) == day)
                ++end;
            on_slice(std::span<const trace::Request>(buf.data() + start,
                                                     end - start));
            start = end;
        }
    }
}

/**
 * Fixed-capacity per-bin request accumulator: the hand-off half of the
 * facade. Requests routed to a bin (a shard, a server) are buffered
 * until the bin fills or flushAll() is called; `flush(bin, span)`
 * delivers each non-empty bin downstream. All storage is allocated at
 * construction, so add() is allocation-free and may run inside a
 * no-alloc region.
 */
template <typename Flush>
class RequestBatcher
{
  public:
    /**
     * @param bins     number of destinations
     * @param capacity requests buffered per bin before an automatic
     *                 flush (clamped to >= 1)
     * @param flush    callable (size_t bin, span<const Request>)
     */
    RequestBatcher(size_t bins, size_t capacity, Flush flush)
        : cap(std::max<size_t>(1, capacity)), flush_(std::move(flush)),
          buf(bins * cap), fill(bins, 0)
    {
    }

    /** Append one request to `bin`, flushing the bin when full. */
    void
    add(size_t bin, const trace::Request &req)
    {
        trace::Request *base = buf.data() + bin * cap;
        base[fill[bin]++] = req;
        if (fill[bin] == cap)
            flushBin(bin);
    }

    /**
     * Flush every partially-filled bin. The engine calls this before
     * every day-end event and at end of trace, so no request is ever
     * held across a finishDay() and bins never mix calendar days.
     */
    void
    flushAll()
    {
        for (size_t bin = 0; bin < fill.size(); ++bin)
            flushBin(bin);
    }

  private:
    void
    flushBin(size_t bin)
    {
        if (fill[bin] == 0)
            return;
        flush_(bin, std::span<const trace::Request>(
                        buf.data() + bin * cap, fill[bin]));
        fill[bin] = 0;
    }

    size_t cap;
    Flush flush_;
    std::vector<trace::Request> buf;
    std::vector<size_t> fill;
};

} // namespace sim
} // namespace sievestore

#endif // SIEVESTORE_SIM_BATCH_HPP

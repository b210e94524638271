/**
 * @file
 * The replay engine behind every driver (see sim/driver.hpp).
 *
 * Nodes share no block state, so each node's DailyReports are a pure
 * function of the request stream routed to it and the day boundaries
 * fired on it. The engine fixes both once: the calling thread pumps
 * the trace in time order, routes each request (whole, page-split by
 * forEachSubrequest, or by server) into a RequestBatcher bin per
 * node, and at each calendar-day crossing flushes every partial bin
 * before the day ends on *every* node (an idle node must still run
 * its epoch boundary).
 *
 * Without workers, bins go to Appliance::processBatch and day ends to
 * finishDay on the calling thread. With workers, bins are staged into
 * one bounded SPSC queue per node (an item carries up to
 * kQueueBatchRequests requests, so one push/pop and one atomic
 * release per batch) and day-end markers go to every queue. Each
 * worker consumes its queues strictly in order, so every node sees
 * the request/finishDay sequence of the calling-thread path and its
 * reports are bit-identical by construction. The calendar-day barrier
 * holds every node at the same boundary so the cross-node audit sees
 * a consistent cut, exactly where the calling-thread path audits.
 *
 * Deadlock-freedom: workers poll their queues non-blockingly and
 * round-robin, so a full queue is always eventually drained by its
 * owner; the reader blocks only on a full queue, and every item that
 * precedes a barrier round is already enqueued before the reader can
 * block on the next round's items.
 */

#include <algorithm>
#include <array>
#include <condition_variable>
#include <span>
#include <thread>
#include <vector>

#include "sim/batch.hpp"
#include "sim/driver.hpp"
#include "sim/sharded.hpp"
#include "util/alloc_guard.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/spsc_queue.hpp"
#include "util/thread_annotations.hpp"

namespace sievestore {
namespace sim {

namespace {

/**
 * One queue entry: a batch of routed requests, or a calendar-day
 * boundary. The request payload is a fixed POD array so the ring
 * stays pre-sized; items are written into and consumed out of the
 * ring slots in place (pushWith / tryConsumeWith), so only the
 * count-prefix of `reqs` is ever copied. Partial batches (flushed at
 * day ends and end of trace) just carry a smaller count. All requests
 * in one item belong to one calendar day.
 */
struct Item
{
    enum class Kind : uint8_t { Requests, DayEnd };
    Kind kind = Kind::Requests;
    /** Valid entries in `reqs` (Requests only). */
    uint16_t count = 0;
    /** Day being closed (DayEnd only). */
    int day = 0;
    std::array<trace::Request, kQueueBatchRequests> reqs;
};

using ItemQueue = util::SpscQueue<Item>;

/**
 * Cyclic barrier with a serial phase: the last thread to arrive runs
 * `serial_fn` while the others are parked, then everyone is released.
 * The mutex hand-off makes all pre-arrival writes (each worker's
 * finishDay effects) visible to the serial phase and vice versa.
 *
 * The barrier state is GUARDED_BY(mu): Clang's thread-safety analysis
 * rejects any touch of arrived/generation outside the lock, including
 * inside the wait predicate (annotated REQUIRES(mu) — the predicate
 * runs under the reacquired lock per the condition_variable contract).
 */
class DayBarrier
{
  public:
    explicit DayBarrier(size_t parties) : parties_(parties) {}

    template <typename Fn>
    void
    arriveAndWait(Fn &&serial_fn)
    {
        util::MutexLock lock(mu);
        if (++arrived == parties_) {
            serial_fn();
            arrived = 0;
            ++generation;
            cv.notify_all();
            return;
        }
        const uint64_t gen = generation;
        // condition_variable_any waits on the annotated scoped lock
        // (MutexLock is BasicLockable); the capability is held again
        // whenever the predicate runs and when wait returns.
        cv.wait(lock,
                [&]() REQUIRES(mu) { return generation != gen; });
    }

  private:
    util::Mutex mu;
    std::condition_variable_any cv;
    const size_t parties_;
    size_t arrived GUARDED_BY(mu) = 0;
    uint64_t generation GUARDED_BY(mu) = 0;
};

/** Where one node stands within the current replay round. */
enum class Phase : uint8_t { Running, AtDayEnd, Closed };

/**
 * Drain whatever node `s` has available. Advances the node through
 * requests until the queue momentarily empties (Running), a day-end
 * marker is consumed (AtDayEnd, day stored in *day_out), or the queue
 * is closed and fully drained (Closed, after finishTrace).
 */
Phase
pollShard(ItemQueue &queue, core::Appliance &node, int *day_out)
{
    // Each node queue is consumed only by its owning worker (the
    // round-robin assignment in runWorker); claim the consumer
    // capability for this scope.
    queue.assertConsumerRole();
    for (;;) {
        // Items are consumed *in place*: the node processes the batch
        // straight out of the ring slot, and only then is the slot
        // released back to the producer — zero copies and one atomic
        // release per batch. Holding the slot through processBatch is
        // safe because the ring always has >= 2 slots, so the reader
        // keeps staging the next item concurrently.
        bool day_end = false;
        auto consume = [&](const Item &item) {
            if (item.kind == Item::Kind::Requests) {
                // One appliance entry per batch: day-report lookup
                // and (on flat configurations) the no-alloc region
                // are amortized over the whole item.
                node.processBatch(std::span<const trace::Request>(
                    item.reqs.data(), item.count));
            } else {
                node.finishDay(item.day);
                *day_out = item.day;
                day_end = true;
            }
        };
        bool got = queue.tryConsumeWith(consume);
        if (!got && queue.closed()) {
            // Re-check after observing the close flag: items pushed
            // before close() may race with the flag's visibility.
            got = queue.tryConsumeWith(consume);
            if (!got)
                break;
        }
        if (!got)
            return Phase::Running;
        if (day_end)
            return Phase::AtDayEnd;
    }
    node.finishTrace();
    return Phase::Closed;
}

/** Worker `w` of `workers`: drive nodes w, w + workers, ... to close. */
void
runWorker(size_t w, size_t workers,
          const std::vector<core::Appliance *> &nodes,
          const std::vector<std::unique_ptr<ItemQueue>> &queues,
          DayBarrier &barrier, bool audit)
{
    std::vector<size_t> owned;
    for (size_t s = w; s < nodes.size(); s += workers)
        owned.push_back(s);
    const size_t n = owned.size();
    std::vector<Phase> phase(n, Phase::Running);
    size_t closed_count = 0;

    while (closed_count < n) {
        // One round: advance every owned node to its next day-end
        // marker (or to close). Non-blocking round-robin polling so a
        // stalled node never prevents draining another — the reader's
        // backpressure depends on it.
        size_t running = n - closed_count;
        int round_day = 0;
        bool saw_day_end = false;
        while (running > 0) {
            bool progressed = false;
            for (size_t k = 0; k < n; ++k) {
                if (phase[k] != Phase::Running)
                    continue;
                const size_t s = owned[k];
                int day = 0;
                const Phase p = pollShard(*queues[s], *nodes[s], &day);
                if (p == Phase::Running)
                    continue;
                phase[k] = p;
                --running;
                progressed = true;
                if (p == Phase::AtDayEnd) {
                    SIEVE_CHECK(!saw_day_end || day == round_day,
                                "shards diverged within one round: "
                                "day %d vs %d",
                                day, round_day);
                    saw_day_end = true;
                    round_day = day;
                } else {
                    ++closed_count;
                }
            }
            if (running > 0 && !progressed)
                std::this_thread::yield();
        }

        // The reader pushes each marker to every queue before any
        // later item, so a round ends uniformly: either every owned
        // node hit the same day-end or every one closed.
        if (saw_day_end) {
            SIEVE_CHECK(closed_count == 0 || closed_count == n,
                        "round mixed day-end and close markers");
            barrier.arriveAndWait([&nodes, round_day, audit] {
                // Serial phase: every worker has arrived, so all
                // nodes closed `round_day`. Audit the lockstep
                // property and (when enabled) the same cross-node
                // invariants the serial path checks per day.
                for (const core::Appliance *node : nodes)
                    SIEVE_CHECK(node->lastFinishedDay() == round_day,
                                "shard not in epoch lockstep: "
                                "cursor %d, barrier day %d",
                                node->lastFinishedDay(), round_day);
                if (audit)
                    checkNodes(nodes);
            });
            for (size_t k = 0; k < n; ++k)
                if (phase[k] == Phase::AtDayEnd)
                    phase[k] = Phase::Running;
        }
    }
}

} // namespace

void
checkNodes(const std::vector<core::Appliance *> &nodes)
{
    SIEVE_CHECK(!nodes.empty(), "deployment has no nodes");
    core::DailyReport sum;
    for (const core::Appliance *node : nodes) {
        SIEVE_CHECK(node != nullptr);
        node->checkInvariants();
        sum.add(node->totals());
    }
    SIEVE_CHECK(sum.hits <= sum.accesses);
    SIEVE_CHECK(sum.read_hits + sum.write_hits == sum.hits);
}

std::vector<core::Appliance *>
borrowNodes(const std::vector<std::unique_ptr<core::Appliance>> &owned)
{
    std::vector<core::Appliance *> nodes;
    for (const auto &node : owned)
        nodes.push_back(node.get());
    return nodes;
}

void
replay(trace::TraceReader &reader, const ReplayPlan &plan)
{
    const std::vector<core::Appliance *> &nodes = plan.nodes;
    if (plan.batch == 0)
        util::fatal("batched replay requires a batch size >= 1");
    const size_t workers = std::min(plan.workers, nodes.size());
    if (workers > 0 && plan.queue_depth == 0)
        util::fatal("parallel replay requires queue_depth >= 1");

    // Hand-off batch: the decode batch, clamped to a queue item with
    // workers. queue_depth counts *requests*, not items.
    const size_t bin =
        workers > 0 ? std::min(plan.batch, kQueueBatchRequests)
                    : plan.batch;
    std::vector<std::unique_ptr<ItemQueue>> queues;
    for (size_t s = 0; workers > 0 && s < nodes.size(); ++s)
        queues.push_back(std::make_unique<ItemQueue>(
            std::max<size_t>(2, plan.queue_depth / bin)));

    // With workers, bins are staged directly into the ring slots
    // (pushWith), so a batch is copied exactly once — bin to slot,
    // count-prefix only — and the steady state never touches the
    // heap, even while blocked on a full queue.
    auto deliver = [&](size_t node,
                       std::span<const trace::Request> reqs) {
        if (queues.empty()) {
            nodes[node]->processBatch(reqs);
            return;
        }
        // The calling thread is the sole producer for every queue.
        queues[node]->assertProducerRole();
        queues[node]->pushWith([&reqs](Item &slot) {
            slot.kind = Item::Kind::Requests;
            slot.count = static_cast<uint16_t>(reqs.size());
            std::copy(reqs.begin(), reqs.end(), slot.reqs.begin());
        });
    };
    RequestBatcher<decltype(deliver)> batcher(nodes.size(), bin,
                                              deliver);

    DayBarrier barrier(workers);
    std::vector<std::thread> threads;
    auto stop = [&] {
        for (auto &q : queues) {
            q->assertProducerRole();
            q->close();
        }
        for (std::thread &t : threads)
            t.join();
    };
    try {
        for (size_t w = 0; w < workers; ++w)
            threads.emplace_back(runWorker, w, workers, std::cref(nodes),
                                 std::cref(queues), std::ref(barrier),
                                 plan.audit);
        pumpBatches(
            reader, plan.batch,
            [&](std::span<const trace::Request> slice) {
                SIEVE_ASSERT_NO_ALLOC_WHEN(!queues.empty());
                for (const trace::Request &req : slice) {
                    switch (plan.route) {
                    case Route::Whole:
                        batcher.add(0, req);
                        break;
                    case Route::ByPage:
                        forEachSubrequest(
                            req, nodes.size(), plan.seed,
                            [&batcher](size_t shard,
                                       const trace::Request &sub) {
                                batcher.add(shard, sub);
                            });
                        break;
                    case Route::ByServer:
                        if (req.server >= nodes.size())
                            util::fatal("request from server %u but "
                                        "only %zu capacities",
                                        unsigned(req.server),
                                        nodes.size());
                        batcher.add(req.server, req);
                        break;
                    }
                }
            },
            [&](int day) {
                // Flush every partial batch before the day ends so no
                // request is delivered after its day's boundary.
                if (queues.empty()) {
                    batcher.flushAll();
                    for (core::Appliance *node : nodes)
                        node->finishDay(day);
                    if (plan.audit)
                        checkNodes(nodes);
                    return;
                }
                SIEVE_ASSERT_NO_ALLOC;
                batcher.flushAll();
                for (auto &q : queues) {
                    q->assertProducerRole();
                    q->pushWith([day](Item &slot) {
                        slot.kind = Item::Kind::DayEnd;
                        slot.day = day;
                        slot.count = 0;
                    });
                }
            });
        SIEVE_ASSERT_NO_ALLOC_WHEN(!queues.empty());
        batcher.flushAll();
    } catch (...) {
        // A failed spawn or a malformed trace (fatal in the pump) must
        // still close the queues and join the workers before
        // unwinding, or ~thread() would terminate the process.
        stop();
        throw;
    }
    stop();
    if (queues.empty())
        for (core::Appliance *node : nodes)
            node->finishTrace();
    if (plan.audit)
        checkNodes(nodes);
}

} // namespace sim
} // namespace sievestore

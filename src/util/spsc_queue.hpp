/**
 * @file
 * Bounded lock-free single-producer / single-consumer queue.
 *
 * The replay engine's worker path (sim/replay.cpp) moves every
 * request of a sharded trace from one reader thread to one worker per
 * shard; with millions of requests per simulated day the hand-off is a
 * hot path, so the queue is a wait-free ring buffer: one atomic store
 * per push and per pop, indices on separate cache lines, and cached
 * peer positions so the common case touches no shared line at all
 * (the "fast forward" optimization of Rigtorp-style SPSC rings).
 *
 * Contract: exactly one thread calls tryPush/push/close (the producer)
 * and exactly one thread calls tryPop/pop (the consumer). Release
 * stores on the producer index publish the slot contents; acquire
 * loads on the consumer side observe them — this pairing is the whole
 * memory-ordering argument, and the tsan preset verifies it.
 *
 * The roles are also *capabilities* (util/thread_annotations.hpp):
 * every producer method REQUIRES(producer_role_) and every consumer
 * method REQUIRES(consumer_role_), with the role-private cached
 * indices GUARDED_BY the matching role. A thread claims its role by
 * calling assertProducerRole() / assertConsumerRole() once at the top
 * of its queue-touching scope — a TS_ASSERT no-op that tells Clang's
 * thread-safety analysis "this thread is the endpoint", after which
 * any cross-role access (a producer touching tail_cache, a consumer
 * calling push) is a compile error under -Wthread-safety.
 */

#ifndef SIEVESTORE_UTIL_SPSC_QUEUE_HPP
#define SIEVESTORE_UTIL_SPSC_QUEUE_HPP

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace sievestore {
namespace util {

/**
 * Fixed-capacity SPSC ring buffer. T must be default-constructible and
 * move-assignable. Capacity is rounded up to a power of two (minimum
 * 2) so wraparound is a mask, not a modulo.
 */
template <typename T>
class SpscQueue
{
  public:
    explicit SpscQueue(size_t min_capacity)
    {
        uint64_t cap = 2;
        while (cap < min_capacity)
            cap *= 2;
        slots.resize(static_cast<size_t>(cap));
        mask = cap - 1;
    }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /** Usable capacity in items. */
    size_t capacity() const { return slots.size(); }

    /**
     * Claim the producer role for the calling thread's scope. The role
     * is conferred by construction (the SPSC contract), not acquired:
     * this compiles to nothing and exists so the thread-safety
     * analysis knows the caller is the producer endpoint. Call it once
     * at the top of each function that pushes or closes.
     */
    void assertProducerRole() const TS_ASSERT(producer_role_) {}

    /** Claim the consumer role (dual of assertProducerRole). */
    void assertConsumerRole() const TS_ASSERT(consumer_role_) {}

    /**
     * Producer: enqueue by move. Returns false (leaving `value`
     * untouched) when the ring is full.
     */
    bool
    tryPush(T &&value) REQUIRES(producer_role_)
    {
        const uint64_t t = tail.load(std::memory_order_relaxed);
        if (t - head_cache == capacity()) {
            head_cache = head.load(std::memory_order_acquire);
            if (t - head_cache == capacity())
                return false;
        }
        slots[static_cast<size_t>(t & mask)] = std::move(value);
        tail.store(t + 1, std::memory_order_release);
        return true;
    }

    /** Producer: enqueue by copy. */
    bool
    tryPush(const T &value) REQUIRES(producer_role_)
    {
        T copy = value;
        return tryPush(std::move(copy));
    }

    /**
     * Producer: fill the next slot in place via fn(T&) — for large
     * payloads where a staged copy plus a move would double the
     * hand-off cost (the parallel replay engine's batched items). The
     * slot may hold a stale previous value; fn must overwrite every
     * field it will publish. Returns false when the ring is full.
     */
    template <typename Fn>
    bool
    tryPushWith(Fn &&fn) REQUIRES(producer_role_)
    {
        const uint64_t t = tail.load(std::memory_order_relaxed);
        if (t - head_cache == capacity()) {
            head_cache = head.load(std::memory_order_acquire);
            if (t - head_cache == capacity())
                return false;
        }
        fn(slots[static_cast<size_t>(t & mask)]);
        tail.store(t + 1, std::memory_order_release);
        return true;
    }

    /**
     * Consumer: process the next slot in place via fn(const T&), then
     * release it to the producer — the zero-copy dual of
     * tryPushWith(). References into the slot must not escape fn.
     * Returns false when the queue is empty.
     */
    template <typename Fn>
    bool
    tryConsumeWith(Fn &&fn) REQUIRES(consumer_role_)
    {
        const uint64_t h = head.load(std::memory_order_relaxed);
        if (h == tail_cache) {
            tail_cache = tail.load(std::memory_order_acquire);
            if (h == tail_cache)
                return false;
        }
        fn(static_cast<const T &>(
            slots[static_cast<size_t>(h & mask)]));
        head.store(h + 1, std::memory_order_release);
        return true;
    }

    /** Consumer: dequeue into `out`. Returns false when empty. */
    bool
    tryPop(T &out) REQUIRES(consumer_role_)
    {
        const uint64_t h = head.load(std::memory_order_relaxed);
        if (h == tail_cache) {
            tail_cache = tail.load(std::memory_order_acquire);
            if (h == tail_cache)
                return false;
        }
        out = std::move(slots[static_cast<size_t>(h & mask)]);
        head.store(h + 1, std::memory_order_release);
        return true;
    }

    /**
     * Producer: mark the stream complete. No push may follow; pop
     * drains the remaining items and then reports end-of-stream.
     */
    void
    close() REQUIRES(producer_role_)
    {
        closed_.store(true, std::memory_order_release);
    }

    /** True once the producer has closed the queue (items may remain). */
    bool
    closed() const
    {
        return closed_.load(std::memory_order_acquire);
    }

    /**
     * Producer: blocking enqueue (spin-then-yield until space).
     * @pre the queue is not closed.
     */
    void
    push(T value) REQUIRES(producer_role_)
    {
        SIEVE_DCHECK(!closed(), "push after close");
        while (!tryPush(std::move(value)))
            backoff();
    }

    /** Producer: blocking in-place enqueue (see tryPushWith). */
    template <typename Fn>
    void
    pushWith(Fn &&fn) REQUIRES(producer_role_)
    {
        SIEVE_DCHECK(!closed(), "push after close");
        while (!tryPushWith(fn))
            backoff();
    }

    /**
     * Consumer: blocking dequeue. Returns false only when the queue is
     * closed *and* fully drained; otherwise waits for the producer.
     */
    bool
    pop(T &out) REQUIRES(consumer_role_)
    {
        for (;;) {
            if (tryPop(out))
                return true;
            if (closed()) {
                // Re-check: items pushed before close() may have become
                // visible only after the closed flag was observed.
                return tryPop(out);
            }
            backoff();
        }
    }

    /** Approximate occupancy (exact only when both sides are quiet). */
    size_t
    sizeApprox() const
    {
        const uint64_t t = tail.load(std::memory_order_acquire);
        const uint64_t h = head.load(std::memory_order_acquire);
        return static_cast<size_t>(t - h);
    }

    /** Footprint of the ring per the memoryBytes() convention. */
    uint64_t
    memoryBytes() const
    {
        return static_cast<uint64_t>(slots.capacity()) * sizeof(T);
    }

  private:
    static void backoff() { std::this_thread::yield(); }

    std::vector<T> slots;
    uint64_t mask = 0;

    /** Consumer position; written by the consumer only. */
    alignas(64) std::atomic<uint64_t> head{0};
    /** Producer's cached view of `head` (producer-private). */
    alignas(64) uint64_t head_cache GUARDED_BY(producer_role_) = 0;
    /** Producer position; written by the producer only. */
    alignas(64) std::atomic<uint64_t> tail{0};
    /** Consumer's cached view of `tail` (consumer-private). */
    alignas(64) uint64_t tail_cache GUARDED_BY(consumer_role_) = 0;
    alignas(64) std::atomic<bool> closed_{false};

    /** Pure capability tokens — see assertProducerRole(). */
    ThreadRole producer_role_;
    ThreadRole consumer_role_;
};

} // namespace util
} // namespace sievestore

#endif // SIEVESTORE_UTIL_SPSC_QUEUE_HPP

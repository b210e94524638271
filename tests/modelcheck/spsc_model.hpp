/**
 * @file
 * Model-checked mirror of util/spsc_queue.hpp.
 *
 * ModelSpscSystem re-implements the SPSC ring's algorithm as an
 * instrumented state machine whose micro-steps — fullness check with
 * cached-index refresh, slot write, index publish, consumer poll,
 * close-flag load — are schedulable by the explorer in sched.hpp. The
 * instrumentation tracks ground truth the real queue cannot afford
 * to: a per-slot occupied bit (so reading a published-but-unwritten
 * or overwritten slot is caught at the exact step it happens) and the
 * exact FIFO sequence (values are pushed as 1..N and must pop in
 * order, so loss, duplication, and reordering all surface as a
 * mismatch or a short final count).
 *
 * SpscBug selects a deliberately broken variant; the checker must
 * find a violating schedule for every one of them and none for
 * SpscBug::None. Each bug is a realistic implementation slip:
 *
 *  - CapacityOffByOne: the fullness test admits capacity+1 items, so
 *    the ring wraps onto an unconsumed slot.
 *  - PublishBeforeWrite: the producer index is released before the
 *    payload store — the real queue's release/acquire pairing exists
 *    precisely to forbid this order.
 *  - NoCloseRecheck: the consumer trusts one failed tryPop + closed
 *    flag and skips the final re-poll, losing items pushed between
 *    the two loads (the race the comment in sim/replay.cpp's
 *    pollShard documents).
 *  - NeverRefreshHeadCache: the producer never refreshes its cached
 *    consumer position, so a once-full ring looks full forever and
 *    the system deadlocks.
 *
 * RealSpscSystem drives the actual util::SpscQueue at operation
 * granularity (each step is one complete tryPush/tryPop/close call),
 * checking the same FIFO/no-loss invariants across every operation
 * interleaving the explorer can produce.
 */

#ifndef SIEVESTORE_TESTS_MODELCHECK_SPSC_MODEL_HPP
#define SIEVESTORE_TESTS_MODELCHECK_SPSC_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "modelcheck/sched.hpp"
#include "util/check.hpp"
#include "util/spsc_queue.hpp"

namespace sievestore {
namespace modelcheck {

/** Which implementation slip to inject into the mirror. */
enum class SpscBug
{
    None,
    CapacityOffByOne,
    PublishBeforeWrite,
    NoCloseRecheck,
    NeverRefreshHeadCache,
};

/**
 * Micro-step mirror of the SPSC ring. Thread 0 is the producer
 * (pushes values 1..items, then closes), thread 1 the consumer
 * (pops until end-of-stream).
 */
class ModelSpscSystem : public SystemBase
{
  public:
    ModelSpscSystem(size_t capacity, uint32_t items, SpscBug bug)
        : slots_(capacity, 0), occupied_(capacity, 0),
          mask_(capacity - 1), items_(items), bug_(bug)
    {
        SIEVE_CHECK(capacity >= 2 && (capacity & mask_) == 0,
                    "model capacity must be a power of two >= 2");
    }

    size_t numThreads() const override { return 2; }

    bool
    done(size_t tid) const override
    {
        return tid == 0 ? pstate_ == PState::Done
                        : cstate_ == CState::Done;
    }

    bool
    runnable(size_t tid) const override
    {
        if (tid == 0)
            return producerRunnable();
        return consumerRunnable();
    }

    void
    step(size_t tid) override
    {
        if (tid == 0)
            stepProducer();
        else
            stepConsumer();
    }

    void
    checkFinal() override
    {
        if (popped_ != items_)
            fail("lost items: consumer saw " +
                 std::to_string(popped_) + " of " +
                 std::to_string(items_));
    }

  private:
    size_t capacity() const { return slots_.size(); }

    /** Occupancy limit the (possibly buggy) fullness test enforces. */
    uint64_t
    fullAt() const
    {
        return capacity() +
               (bug_ == SpscBug::CapacityOffByOne ? 1 : 0);
    }

    bool
    fullByCache() const
    {
        return tail_ - head_cache_ == fullAt();
    }

    // --- producer: Check -> Write/Publish -> ... -> Close

    enum class PState : uint8_t
    {
        Check,   ///< fullness test, refreshing the cached head if so
        Write,   ///< store the payload into its slot
        Publish, ///< release the new tail index
        Close,   ///< set the closed flag
        Done,
    };

    bool
    producerRunnable() const
    {
        if (pstate_ != PState::Check || !fullByCache())
            return true;
        // Blocked on a full ring: schedulable only once a refresh
        // would reveal room (omniscient read of the true head). The
        // stale-cache bug never refreshes, so it never wakes.
        if (bug_ == SpscBug::NeverRefreshHeadCache)
            return false;
        return tail_ - head_ != fullAt();
    }

    void
    stepProducer()
    {
        switch (pstate_) {
          case PState::Check:
            if (fullByCache()) {
                if (bug_ != SpscBug::NeverRefreshHeadCache)
                    head_cache_ = head_;
                if (fullByCache())
                    return; // still full; parked via runnable()
            }
            p_idx_ = tail_;
            pstate_ = bug_ == SpscBug::PublishBeforeWrite
                          ? PState::Publish
                          : PState::Write;
            return;
          case PState::Write: {
            const size_t slot = static_cast<size_t>(p_idx_ & mask_);
            if (occupied_[slot])
                fail("overwrote an unconsumed slot: the fullness "
                     "test admitted too many items");
            slots_[slot] = pushed_ + 1;
            occupied_[slot] = 1;
            if (bug_ == SpscBug::PublishBeforeWrite) {
                producerAdvance();
                return;
            }
            pstate_ = PState::Publish;
            return;
          }
          case PState::Publish:
            tail_ = p_idx_ + 1;
            if (tail_ - head_ > capacity())
                fail("published occupancy exceeds capacity");
            if (bug_ == SpscBug::PublishBeforeWrite) {
                pstate_ = PState::Write;
                return;
            }
            producerAdvance();
            return;
          case PState::Close:
            closed_ = true;
            pstate_ = PState::Done;
            return;
          case PState::Done:
            fail("scheduled a finished producer");
            return;
        }
    }

    /** After a completed push: next item or close. */
    void
    producerAdvance()
    {
        ++pushed_;
        pstate_ = pushed_ == items_ ? PState::Close : PState::Check;
    }

    // --- consumer: Pop -> [ClosedCheck -> FinalPop] -> Done

    enum class CState : uint8_t
    {
        Pop,         ///< one tryPop: consume, or find the ring empty
        ClosedCheck, ///< load the closed flag after a failed poll
        FinalPop,    ///< post-close re-poll pop() performs
        Done,
    };

    bool
    consumerRunnable() const
    {
        if (cstate_ != CState::Pop || !waiting_)
            return true;
        // Parked on an empty, open queue: wake when an item is truly
        // available or the producer closed.
        return tail_ != head_ || closed_;
    }

    /**
     * Mirror of tryPop as one schedulable step (one complete call of
     * the real queue): empty test with inline cache refresh, then
     * the slot read and head publish. The races this model hunts all
     * sit *between* calls (versus the producer's decomposed steps and
     * the closed flag), so coarser consumer granularity loses none
     * of them while keeping the exhaustive tree tractable.
     */
    bool
    tryPopStep()
    {
        if (head_ == tail_cache_) {
            tail_cache_ = tail_;
            if (head_ == tail_cache_)
                return false;
        }
        consume();
        return true;
    }

    void
    stepConsumer()
    {
        switch (cstate_) {
          case CState::Pop:
            waiting_ = false;
            if (!tryPopStep())
                cstate_ = CState::ClosedCheck;
            return;
          case CState::ClosedCheck:
            if (!closed_) {
                waiting_ = true;
                cstate_ = CState::Pop;
                return;
            }
            if (bug_ == SpscBug::NoCloseRecheck) {
                // Trust the single failed poll: end of stream.
                cstate_ = CState::Done;
                return;
            }
            cstate_ = CState::FinalPop;
            return;
          case CState::FinalPop:
            cstate_ = tryPopStep() ? CState::Pop : CState::Done;
            return;
          case CState::Done:
            fail("scheduled a finished consumer");
            return;
        }
    }

    void
    consume()
    {
        const size_t slot = static_cast<size_t>(head_ & mask_);
        if (!occupied_[slot])
            fail("popped a slot that was never written: the index "
                 "was published ahead of the payload");
        else if (slots_[slot] != popped_ + 1)
            fail("FIFO broken: expected " +
                 std::to_string(popped_ + 1) + ", popped " +
                 std::to_string(slots_[slot]));
        occupied_[slot] = 0;
        ++head_;
        ++popped_;
    }

    // Ground-truth ring.
    std::vector<uint32_t> slots_;
    std::vector<uint8_t> occupied_;
    const uint64_t mask_;
    uint64_t head_ = 0;
    uint64_t tail_ = 0;
    uint64_t head_cache_ = 0; ///< producer-private
    uint64_t tail_cache_ = 0; ///< consumer-private
    bool closed_ = false;

    const uint32_t items_;
    const SpscBug bug_;

    PState pstate_ = PState::Check;
    uint64_t p_idx_ = 0;
    uint32_t pushed_ = 0;

    CState cstate_ = CState::Pop;
    bool waiting_ = false;
    uint32_t popped_ = 0;
};

/**
 * The real util::SpscQueue under operation-granularity exploration:
 * each step is one complete public call, so the explorer covers every
 * interleaving of the two threads' operation sequences, including the
 * close/drain race pollShard handles.
 */
class RealSpscSystem : public SystemBase
{
  public:
    RealSpscSystem(size_t capacity, uint32_t items)
        : queue_(capacity), items_(items)
    {
    }

    size_t numThreads() const override { return 2; }

    bool
    done(size_t tid) const override
    {
        return tid == 0 ? producer_done_ : cstate_ == CState::Done;
    }

    bool
    runnable(size_t tid) const override
    {
        if (tid == 0) {
            if (producer_done_)
                return false;
            // Pushing blocks on a full ring; close never blocks.
            return pushed_ == items_ ||
                   queue_.sizeApprox() < queue_.capacity();
        }
        if (cstate_ != CState::Try || !waiting_)
            return true;
        return queue_.sizeApprox() > 0 || queue_.closed();
    }

    void
    step(size_t tid) override
    {
        if (tid == 0)
            stepProducer();
        else
            stepConsumer();
    }

    void
    checkFinal() override
    {
        if (popped_ != items_)
            fail("real queue lost items: popped " +
                 std::to_string(popped_) + " of " +
                 std::to_string(items_));
    }

  private:
    void
    stepProducer()
    {
        // The explorer interleaves the two logical threads on one OS
        // thread; claim the role each step for the queue's
        // thread-safety annotations.
        queue_.assertProducerRole();
        if (pushed_ < items_) {
            if (!queue_.tryPush(pushed_ + 1))
                fail("tryPush failed with space available");
            else
                ++pushed_;
            return;
        }
        queue_.close();
        producer_done_ = true;
    }

    enum class CState : uint8_t
    {
        Try,    ///< one tryPop; empty -> check the closed flag next
        Closed, ///< closed yet? final re-poll : park and retry
        Final,  ///< the post-close re-poll pop() performs
        Done,
    };

    void
    stepConsumer()
    {
        queue_.assertConsumerRole();
        uint32_t value = 0;
        switch (cstate_) {
          case CState::Try:
            waiting_ = false;
            if (queue_.tryPop(value))
                take(value);
            else
                cstate_ = CState::Closed;
            return;
          case CState::Closed:
            if (queue_.closed()) {
                cstate_ = CState::Final;
            } else {
                waiting_ = true;
                cstate_ = CState::Try;
            }
            return;
          case CState::Final:
            if (queue_.tryPop(value)) {
                take(value);
                cstate_ = CState::Try;
            } else {
                cstate_ = CState::Done;
            }
            return;
          case CState::Done:
            fail("scheduled a finished consumer");
            return;
        }
    }

    void
    take(uint32_t value)
    {
        if (value != popped_ + 1)
            fail("real queue FIFO broken: expected " +
                 std::to_string(popped_ + 1) + ", popped " +
                 std::to_string(value));
        ++popped_;
    }

    util::SpscQueue<uint32_t> queue_;
    const uint32_t items_;
    uint32_t pushed_ = 0;
    bool producer_done_ = false;

    CState cstate_ = CState::Try;
    bool waiting_ = false;
    uint32_t popped_ = 0;
};

} // namespace modelcheck
} // namespace sievestore

#endif // SIEVESTORE_TESTS_MODELCHECK_SPSC_MODEL_HPP

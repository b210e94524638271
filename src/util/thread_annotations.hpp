/**
 * @file
 * Clang thread-safety annotations and an annotated mutex.
 *
 * The concurrency substrate (util/spsc_queue.hpp, the parallel replay
 * engine) documents its locking and role discipline in prose and
 * proves it dynamically (TSan on sampled inputs, the SPSC model
 * checker). These macros turn the discipline into compiler-checked
 * facts: `-Wthread-safety -Wthread-safety-beta` (enabled for Clang
 * builds by the top-level CMakeLists, hence under -Werror in the CI
 * presets) rejects any access to a GUARDED_BY field without its
 * capability and any call to a REQUIRES function without the required
 * role. scripts/sieve_analyze.py re-checks the same annotations at
 * function granularity with no toolchain dependency, so the discipline
 * is enforced even where only GCC is available.
 *
 * Vocabulary (the standard Clang pattern, kept under the canonical
 * names so the analysis documentation applies verbatim):
 *
 *  - CAPABILITY(name) / SCOPED_CAPABILITY on the lock types;
 *  - GUARDED_BY(cap) on data members — reads and writes require the
 *    capability (use it for genuinely shared state *and* for
 *    role-private fields like the SPSC cached indices, where the
 *    "capability" is a thread role rather than a mutex);
 *  - REQUIRES(cap...) on functions that must be entered with the
 *    capability held;
 *  - ACQUIRE / RELEASE / TRY_ACQUIRE on lock primitives;
 *  - ACQUIRED_BEFORE / ACQUIRED_AFTER declare lock ordering between
 *    members, turning deadlock freedom into a checked property;
 *  - TS_ASSERT(cap) on assertion functions: calling one tells the
 *    analysis the capability is held from that point on. This is how
 *    thread *roles* (SPSC producer/consumer) are claimed — the role is
 *    conferred by construction (exactly one thread runs the producer
 *    loop), not by a lock, so the claiming function asserts rather
 *    than acquires.
 *  - NO_THREAD_SAFETY_ANALYSIS as the last-resort opt-out.
 *
 * All macros expand to nothing on compilers without the attributes, so
 * GCC builds are unaffected.
 */

#ifndef SIEVESTORE_UTIL_THREAD_ANNOTATIONS_HPP
#define SIEVESTORE_UTIL_THREAD_ANNOTATIONS_HPP

#include <mutex>

#if defined(__clang__)
#define SIEVE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SIEVE_THREAD_ANNOTATION(x)
#endif

#define CAPABILITY(x) SIEVE_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY SIEVE_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) SIEVE_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) SIEVE_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...)                                              \
    SIEVE_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...)                                               \
    SIEVE_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...)                                                     \
    SIEVE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ACQUIRE(...)                                                      \
    SIEVE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...)                                                      \
    SIEVE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...)                                                  \
    SIEVE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) SIEVE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define TS_ASSERT(x) SIEVE_THREAD_ANNOTATION(assert_capability(x))
#define NO_THREAD_SAFETY_ANALYSIS                                         \
    SIEVE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace sievestore {
namespace util {

/**
 * A capability: an annotated std::mutex. libstdc++'s std::mutex
 * carries no thread-safety attributes, so GUARDED_BY(a std::mutex)
 * is rejected by the analysis; this thin wrapper is the annotated
 * stand-in. Use with MutexLock (below); for condition-variable waits
 * pair it with std::condition_variable_any, which accepts any
 * lockable (see sim/replay.cpp DayBarrier).
 */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }
    bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  private:
    std::mutex mu_;
};

/**
 * Scoped lock over a Mutex (RAII, like std::lock_guard) that the
 * analysis understands. Exposes lock()/unlock() so it satisfies
 * BasicLockable — std::condition_variable_any::wait() releases and
 * reacquires through these during a wait; the capability is held again
 * before wait() returns, so functions annotated as holding it remain
 * correct across the wait.
 */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
    ~MutexLock() RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** BasicLockable, for std::condition_variable_any. */
    void lock() ACQUIRE() { mu_.lock(); }
    void unlock() RELEASE() { mu_.unlock(); }

  private:
    Mutex &mu_;
};

/**
 * A thread role, used as a capability: SPSC producer / consumer
 * endpoints are capabilities conferred by construction (the contract
 * says exactly one thread plays each role), so the role object carries
 * no runtime state — it exists only for GUARDED_BY / REQUIRES
 * annotations, claimed via TS_ASSERT assertion functions.
 */
class CAPABILITY("role") ThreadRole
{
};

} // namespace util
} // namespace sievestore

#endif // SIEVESTORE_UTIL_THREAD_ANNOTATIONS_HPP

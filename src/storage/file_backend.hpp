/**
 * @file
 * Real block store: an O_DIRECT-aligned block file behind the cache.
 *
 * The store is a flat file of 4 KB slots addressed by a hash of the
 * op's page id (direct-mapped). Residency correctness lives in
 * cache::BlockCache — the appliance only ever reads pages it knows
 * are resident — so slot collisions change which bytes a read
 * returns, never what the simulation decides (the backend contract:
 * observation, not policy). What the file path measures is the real
 * device behavior of the access pattern: alignment, queue depth, and
 * per-op latency.
 *
 * One submission engine: N worker threads draining a shared batch
 * through pread/pwrite on 4 KB-aligned per-thread buffers, the
 * submitting thread participating. workers=0 serves every op on the
 * calling thread.
 *
 * Setup (file creation, buffer allocation, thread start) is the
 * only SIEVE_MAY_ALLOC surface; the submit paths are allocation-free
 * so the appliance's batch-level AllocGuard regions stay armed
 * across a drain.
 */

#ifndef SIEVESTORE_STORAGE_FILE_BACKEND_HPP
#define SIEVESTORE_STORAGE_FILE_BACKEND_HPP

#include <condition_variable>
#include <thread>
#include <vector>

#include "storage/backend.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"

namespace sievestore {
namespace storage {

/** O_DIRECT block-file Backend (see file comment). */
class FileBackend final : public Backend
{
  public:
    /** Opens (or creates) the store and starts the workers.
     * SIEVE_MAY_ALLOC: all allocation happens here, before any
     * appliance no-alloc region can reach the backend. */
    SIEVE_MAY_ALLOC explicit FileBackend(const FileBackendConfig &config);
    ~FileBackend() override;

    FileBackend(const FileBackend &) = delete;
    FileBackend &operator=(const FileBackend &) = delete;

    const char *name() const override { return "file"; }

    void readBlocks(std::span<const StorageOp> ops,
                    std::span<uint32_t> lat_ns) override;
    void writeBlocks(std::span<const StorageOp> ops,
                     std::span<uint32_t> lat_ns) override;
    void flush() override;

    void checkInvariants() const override;

    /** Number of 4 KB slots in the store. */
    uint64_t slots() const { return slots_; }

  private:
    /** Serve a batch (inline, or through the pool when there are
     * workers), then fold the per-op results into the stats
     * counters. */
    void run(std::span<const StorageOp> ops, std::span<uint32_t> lat_ns,
             bool is_write);
    /** Worker pool: publish the batch, participate, wait. */
    void runPool(std::span<const StorageOp> ops,
                 std::span<uint32_t> lat_ns, bool is_write);
    /** Claim-and-serve loop shared by workers and the submitter. */
    void serveClaims(void *buf);
    /** Worker thread body. */
    void workerLoop(void *buf);
    /** One 4 KB op on `buf`; returns latency ns or kFailedOp. */
    uint32_t doRead(const StorageOp &op, void *buf);
    uint32_t doWrite(const StorageOp &op, void *buf);
    /** Byte offset of the op's direct-mapped slot. */
    uint64_t slotOffset(const StorageOp &op) const;

    int fd_ = -1;
    uint64_t slots_ = 0;

    /** Submitter's own aligned 4 KB buffer. */
    void *submit_buf_ = nullptr;

    // Worker-pool state: one batch is in flight at a time (the
    // appliance drains synchronously); the submitter publishes it
    // under mu_ and every participant claims op indices under mu_
    // (the 4 KB syscall dominates, so the lock is never contended
    // for long). See sim/replay.cpp DayBarrier for the
    // Mutex/condition_variable_any idiom.
    util::Mutex mu_;
    std::condition_variable_any work_cv_;
    std::condition_variable_any done_cv_;
    uint64_t batch_seq_ GUARDED_BY(mu_) = 0;
    const StorageOp *job_ops_ GUARDED_BY(mu_) = nullptr;
    uint32_t *job_lat_ GUARDED_BY(mu_) = nullptr;
    size_t job_count_ GUARDED_BY(mu_) = 0;
    size_t job_next_ GUARDED_BY(mu_) = 0;
    size_t job_done_ GUARDED_BY(mu_) = 0;
    bool job_write_ GUARDED_BY(mu_) = false;
    bool stopping_ GUARDED_BY(mu_) = false;

    std::vector<std::thread> threads_;
    std::vector<void *> worker_bufs_;
};

} // namespace storage
} // namespace sievestore

#endif // SIEVESTORE_STORAGE_FILE_BACKEND_HPP

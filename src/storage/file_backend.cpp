#include "storage/file_backend.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/flow_annotations.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace storage {

namespace {

/**
 * Monotonic nanosecond clock for measured device latency. This is
 * the one sanctioned wall-clock read outside bench/: latencies are
 * observation columns (DailyReport storage_*_ns), never inputs to a
 * sieve/cache decision, so seeded replay reproducibility of every
 * model-side field is unaffected.
 */
SIEVE_TAINT_SOURCE uint64_t
nowNs()
{
    // Measured-latency observation column, never a policy input:
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            // sieve-analyze: allow(determinism) // sieve-lint: allow(wall-clock)
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Elapsed ns -> per-op latency, kept clear of the failure sentinel. */
uint32_t
clampLatency(uint64_t ns)
{
    return ns >= kFailedOp ? kFailedOp - 1
                           : static_cast<uint32_t>(ns);
}

/** Open `path` for block I/O, preferring O_DIRECT; falls back to
 * buffered I/O where the filesystem rejects it (tmpfs). */
int
openStore(const char *path, bool *direct_io)
{
    int fd = ::open(path, O_RDWR | O_CREAT | O_CLOEXEC | O_DIRECT,
                    0600);
    if (fd >= 0) {
        *direct_io = true;
        return fd;
    }
    fd = ::open(path, O_RDWR | O_CREAT | O_CLOEXEC, 0600);
    *direct_io = false;
    return fd;
}

/** One 4 KB-aligned, zero-filled I/O buffer (O_DIRECT requires the
 * memory alignment even when the open fell back to buffered). */
void *
allocAligned()
{
    void *buf = nullptr;
    if (posix_memalign(&buf, trace::kPageBytes, trace::kPageBytes) != 0)
        util::fatal("posix_memalign(4096) failed");
    std::memset(buf, 0, trace::kPageBytes);
    return buf;
}

} // namespace

FileBackend::FileBackend(const FileBackendConfig &config)
{
    // --- store file ---------------------------------------------------
    std::string path = config.path;
    bool temp = path.empty();
    if (temp) {
        // sieve-lint: allow(env-knob) platform scratch-dir convention
        const char *dir = std::getenv("TMPDIR");
        path = std::string(dir && *dir ? dir : "/tmp") +
               "/sievestore-store-XXXXXX";
        const int tfd = mkstemp(path.data());
        if (tfd < 0)
            util::fatal("mkstemp(%s) failed: %s", path.c_str(),
                        std::strerror(errno));
        ::close(tfd);
    }
    fd_ = openStore(path.c_str(), &stats_.direct_io);
    if (fd_ < 0)
        util::fatal("open(%s) failed: %s", path.c_str(),
                    std::strerror(errno));
    if (temp)
        ::unlink(path.c_str()); // anonymous once every fd closes

    slots_ = std::max<uint64_t>(
        1, config.capacity_bytes / trace::kPageBytes);
    if (::ftruncate(fd_, static_cast<off_t>(slots_ *
                                            trace::kPageBytes)) != 0)
        util::fatal("ftruncate(%llu slots) failed: %s",
                    static_cast<unsigned long long>(slots_),
                    std::strerror(errno));

    // --- workers ------------------------------------------------------
    submit_buf_ = allocAligned();
    const unsigned n = std::min(config.workers, 8u);
    threads_.reserve(n);
    worker_bufs_.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        void *buf = allocAligned();
        worker_bufs_.push_back(buf);
        threads_.emplace_back([this, buf]() { workerLoop(buf); });
    }
}

FileBackend::~FileBackend()
{
    {
        util::MutexLock lock(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    for (void *buf : worker_bufs_)
        std::free(buf);
    std::free(submit_buf_);
    if (fd_ >= 0)
        ::close(fd_);
}

uint64_t
FileBackend::slotOffset(const StorageOp &op) const
{
    // Direct-mapped: hash the page id into a slot. Collisions only
    // alias store bytes (see the file comment); the access pattern
    // and per-op cost — what this backend measures — are preserved.
    const uint64_t slot =
        util::reduceRange(util::mix64(op.page), slots_);
    return slot * trace::kPageBytes;
}

uint32_t
FileBackend::doRead(const StorageOp &op, void *buf)
{
    const uint64_t t0 = nowNs();
    const ssize_t got =
        ::pread(fd_, buf, trace::kPageBytes,
                static_cast<off_t>(slotOffset(op)));
    if (got != static_cast<ssize_t>(trace::kPageBytes))
        return kFailedOp; // short read or errno: degrade, don't abort
    return clampLatency(nowNs() - t0);
}

uint32_t
FileBackend::doWrite(const StorageOp &op, void *buf)
{
    const uint64_t t0 = nowNs();
    const ssize_t put =
        ::pwrite(fd_, buf, trace::kPageBytes,
                 static_cast<off_t>(slotOffset(op)));
    if (put != static_cast<ssize_t>(trace::kPageBytes))
        return kFailedOp; // ENOSPC and friends: degrade, don't abort
    return clampLatency(nowNs() - t0);
}

void
FileBackend::serveClaims(void *buf)
{
    for (;;) {
        const StorageOp *ops;
        uint32_t *lat;
        bool is_write;
        size_t i;
        {
            util::MutexLock lock(mu_);
            if (job_next_ >= job_count_)
                return;
            i = job_next_++;
            ops = job_ops_;
            lat = job_lat_;
            is_write = job_write_;
        }
        lat[i] = is_write ? doWrite(ops[i], buf)
                          : doRead(ops[i], buf);
        {
            util::MutexLock lock(mu_);
            ++job_done_;
            if (job_done_ == job_count_)
                done_cv_.notify_all();
        }
    }
}

void
FileBackend::workerLoop(void *buf)
{
    uint64_t seen = 0;
    for (;;) {
        {
            util::MutexLock lock(mu_);
            work_cv_.wait(lock, [&]() REQUIRES(mu_) {
                return stopping_ || batch_seq_ != seen;
            });
            if (stopping_)
                return;
            seen = batch_seq_;
        }
        serveClaims(buf);
    }
}

void
FileBackend::runPool(std::span<const StorageOp> ops,
                     std::span<uint32_t> lat_ns, bool is_write)
{
    {
        util::MutexLock lock(mu_);
        job_ops_ = ops.data();
        job_lat_ = lat_ns.data();
        job_count_ = ops.size();
        job_next_ = 0;
        job_done_ = 0;
        job_write_ = is_write;
        ++batch_seq_;
    }
    work_cv_.notify_all();
    serveClaims(submit_buf_); // the submitter participates
    util::MutexLock lock(mu_);
    done_cv_.wait(lock, [&]() REQUIRES(mu_) {
        return job_done_ == job_count_;
    });
    job_ops_ = nullptr;
    job_lat_ = nullptr;
}

void
FileBackend::run(std::span<const StorageOp> ops,
                 std::span<uint32_t> lat_ns, bool is_write)
{
    if (ops.empty())
        return;
    if (threads_.empty()) {
        // workers = 0: every op on the calling thread.
        for (size_t i = 0; i < ops.size(); ++i)
            lat_ns[i] = is_write ? doWrite(ops[i], submit_buf_)
                                 : doRead(ops[i], submit_buf_);
    } else {
        runPool(ops, lat_ns, is_write);
    }
    for (size_t i = 0; i < ops.size(); ++i) {
        if (is_write) {
            if (lat_ns[i] == kFailedOp)
                noteWriteError();
            else
                noteWrite(lat_ns[i]);
        } else {
            if (lat_ns[i] == kFailedOp)
                noteReadError();
            else
                noteRead(lat_ns[i]);
        }
    }
}

void
FileBackend::readBlocks(std::span<const StorageOp> ops,
                        std::span<uint32_t> lat_ns)
{
    run(ops, lat_ns, false);
}

void
FileBackend::writeBlocks(std::span<const StorageOp> ops,
                         std::span<uint32_t> lat_ns)
{
    run(ops, lat_ns, true);
}

void
FileBackend::flush()
{
    if (fd_ >= 0)
        ::fsync(fd_);
}

void
FileBackend::checkInvariants() const
{
    Backend::checkInvariants();
    SIEVE_CHECK(fd_ >= 0, "file backend lost its store fd");
    SIEVE_CHECK(slots_ > 0, "file backend has a zero-slot store");
    SIEVE_CHECK(threads_.size() == worker_bufs_.size(),
                "%zu worker threads but %zu worker buffers",
                threads_.size(), worker_bufs_.size());
}

} // namespace storage
} // namespace sievestore

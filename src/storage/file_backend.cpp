#include "storage/file_backend.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#ifdef SIEVE_HAVE_LIBURING
#include <liburing.h>
#endif

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

/** Engine requested after the SIEVE_STORAGE_ENGINE override. */
FileBackendConfig::Engine
resolveEngine(FileBackendConfig::Engine configured)
{
    // sieve-lint: allow(env-knob) io_uring may be built yet unusable
    const char *env = std::getenv("SIEVE_STORAGE_ENGINE");
    if (env == nullptr)
        return configured;
    if (std::strcmp(env, "sync") == 0)
        return FileBackendConfig::Engine::Sync;
    if (std::strcmp(env, "uring") == 0)
        return FileBackendConfig::Engine::Uring;
    return FileBackendConfig::Engine::Auto;
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

    // --- engine -------------------------------------------------------
    const FileBackendConfig::Engine engine =
        resolveEngine(config.engine);
#ifdef SIEVE_HAVE_LIBURING
    if (engine != FileBackendConfig::Engine::Sync)
        use_uring_ = initUring(std::max(1u, config.ring_depth));
#endif
    stats_.io_uring = use_uring_;
    if (engine == FileBackendConfig::Engine::Uring && !use_uring_)
        util::warn("storage: io_uring requested but unavailable; "
                   "using the worker-pool fallback");

    submit_buf_ = allocAligned();
    if (!use_uring_) {
        const unsigned n = std::min(config.workers, 8u);
        threads_.reserve(n);
        worker_bufs_.reserve(n);
        for (unsigned i = 0; i < n; ++i) {
            void *buf = allocAligned();
            worker_bufs_.push_back(buf);
            threads_.emplace_back(
                [this, buf]() { workerLoop(buf); });
        }
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
#ifdef SIEVE_HAVE_LIBURING
    if (uring_ != nullptr) {
        io_uring_queue_exit(static_cast<struct io_uring *>(uring_));
        delete static_cast<struct io_uring *>(uring_);
        std::free(ring_bufs_);
    }
#endif
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
#ifdef SIEVE_HAVE_LIBURING
    if (use_uring_) {
        runUring(ops, lat_ns, is_write);
    } else
#endif
        if (threads_.empty()) {
        // Fully synchronous fallback (workers = 0): every op on the
        // calling thread. Always built, exercised by CI via
        // SIEVE_STORAGE_ENGINE=sync + workers=0 configs.
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

#ifdef SIEVE_HAVE_LIBURING

SIEVE_MAY_ALLOC bool
FileBackend::initUring(unsigned depth)
{
    auto *ring = new struct io_uring;
    if (io_uring_queue_init(depth, ring, 0) < 0) {
        // Kernel without io_uring (or seccomp-filtered): fall back.
        delete ring;
        return false;
    }
    void *bufs = nullptr;
    if (posix_memalign(&bufs, trace::kPageBytes,
                       static_cast<size_t>(depth) *
                           trace::kPageBytes) != 0) {
        io_uring_queue_exit(ring);
        delete ring;
        return false;
    }
    std::memset(bufs, 0,
                static_cast<size_t>(depth) * trace::kPageBytes);
    uring_ = ring;
    ring_depth_ = depth;
    ring_bufs_ = static_cast<char *>(bufs);
    return true;
}

void
FileBackend::runUring(std::span<const StorageOp> ops,
                      std::span<uint32_t> lat_ns, bool is_write)
{
    auto *ring = static_cast<struct io_uring *>(uring_);
    for (size_t base = 0; base < ops.size();
         base += ring_depth_) {
        const unsigned n = static_cast<unsigned>(std::min<size_t>(
            ring_depth_, ops.size() - base));
        // Pre-fail the wave; successful completions overwrite, so a
        // lost sqe or unreaped cqe is counted as an error, not junk.
        for (unsigned i = 0; i < n; ++i)
            lat_ns[base + i] = kFailedOp;
        const uint64_t t0 = nowNs();
        unsigned queued = 0;
        for (unsigned i = 0; i < n; ++i) {
            struct io_uring_sqe *sqe = io_uring_get_sqe(ring);
            if (sqe == nullptr)
                continue; // SQ unexpectedly full: op stays failed
            char *buf = ring_bufs_ +
                        static_cast<size_t>(i) * trace::kPageBytes;
            const auto off = static_cast<uint64_t>(
                slotOffset(ops[base + i]));
            if (is_write)
                io_uring_prep_write(sqe, fd_, buf,
                                    trace::kPageBytes, off);
            else
                io_uring_prep_read(sqe, fd_, buf,
                                   trace::kPageBytes, off);
            io_uring_sqe_set_data64(sqe, base + i);
            ++queued;
        }
        const int submitted =
            io_uring_submit_and_wait(ring, queued);
        for (int k = 0; k < submitted; ++k) {
            struct io_uring_cqe *cqe = nullptr;
            if (io_uring_wait_cqe(ring, &cqe) < 0 || cqe == nullptr)
                break;
            const uint64_t idx = io_uring_cqe_get_data64(cqe);
            if (idx >= base && idx < base + n &&
                cqe->res == static_cast<int>(trace::kPageBytes))
                lat_ns[idx] = clampLatency(nowNs() - t0);
            io_uring_cqe_seen(ring, cqe);
        }
    }
}

#endif // SIEVE_HAVE_LIBURING

} // namespace storage
} // namespace sievestore

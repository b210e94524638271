/**
 * @file
 * Fault-injecting Backend decorator for degradation testing.
 *
 * Wraps any Backend and deterministically overwrites selected per-op
 * results with kFailedOp, simulating the device failure modes a real
 * block store exhibits: short reads, ENOSPC on writes, rejected
 * unaligned requests, and a device dropping out mid-batch. The inner
 * backend still performs (and counts) its I/O; the decorator then
 * re-marks the chosen ops as failed in the caller-visible latency
 * span and keeps its own error counters, so tests can assert the
 * appliance degrades to the paper's no-cache path — reads fall
 * through to the ensemble, accounting stays consistent — instead of
 * crashing or corrupting state.
 *
 * All schedules are counter-based (fail every Nth op, fail from op K
 * of each batch), so runs are reproducible without a seed.
 *
 * Test support (ss_test_support): test_storage_backend is its
 * caller, through ApplianceConfig::backend.factory.
 */

#ifndef SIEVESTORE_TESTS_SUPPORT_FAULT_BACKEND_HPP
#define SIEVESTORE_TESTS_SUPPORT_FAULT_BACKEND_HPP

#include <memory>

#include "storage/backend.hpp"

namespace sievestore {
namespace storage {

/** Deterministic fault schedule. Zero-valued knobs are inactive. */
struct FaultPlan
{
    /** Fail every Nth read (1 = every read), as a short read. */
    uint64_t read_short_every = 0;
    /** Fail every Nth write (ENOSPC-style). */
    uint64_t write_enospc_every = 0;
    /** Treat ops whose page id is not 4 KB-unit-aligned as rejected
     * (an O_DIRECT device refusing an unaligned request). */
    bool reject_unaligned = true;
    /** Fail every op from index K onward within each batch (device
     * drops mid-batch); 0 disables. */
    uint64_t fail_batch_from = 0;
};

/** Backend decorator applying a FaultPlan (see file comment). */
class FaultInjectingBackend final : public Backend
{
  public:
    FaultInjectingBackend(std::unique_ptr<Backend> inner,
                          FaultPlan plan);

    const char *name() const override { return "fault"; }

    void readBlocks(std::span<const StorageOp> ops,
                    std::span<uint32_t> lat_ns) override;
    void writeBlocks(std::span<const StorageOp> ops,
                     std::span<uint32_t> lat_ns) override;
    void trimBlocks(std::span<const StorageOp> ops) override;
    void flush() override;

    void checkInvariants() const override;

    const Backend &inner() const { return *inner_; }
    /** Faults injected so far (reads + writes). */
    uint64_t injected() const { return injected_; }

  private:
    /** True when the plan fails op `i` of the current batch. */
    bool shouldFail(const StorageOp &op, size_t index_in_batch,
                    uint64_t seen, uint64_t every) const;

    std::unique_ptr<Backend> inner_;
    FaultPlan plan_;
    uint64_t reads_seen_ = 0;
    uint64_t writes_seen_ = 0;
    uint64_t injected_ = 0;
};

} // namespace storage
} // namespace sievestore

#endif // SIEVESTORE_TESTS_SUPPORT_FAULT_BACKEND_HPP

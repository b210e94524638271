#include "support/fault_backend.hpp"

#include "util/check.hpp"

namespace sievestore {
namespace storage {

FaultInjectingBackend::FaultInjectingBackend(
    std::unique_ptr<Backend> inner, FaultPlan plan)
    : inner_(std::move(inner)), plan_(plan)
{
    SIEVE_CHECK(inner_ != nullptr,
                "fault backend requires an inner backend");
}

bool
FaultInjectingBackend::shouldFail(const StorageOp &op,
                                  size_t index_in_batch,
                                  uint64_t seen,
                                  uint64_t every) const
{
    if (every != 0 && seen % every == 0)
        return true;
    if (plan_.reject_unaligned &&
        trace::blockNrOf(op.page) % trace::kBlocksPerPage != 0)
        return true;
    return plan_.fail_batch_from != 0 &&
           index_in_batch >= plan_.fail_batch_from;
}

void
FaultInjectingBackend::readBlocks(std::span<const StorageOp> ops,
                                  std::span<uint32_t> lat_ns)
{
    inner_->readBlocks(ops, lat_ns);
    for (size_t i = 0; i < ops.size(); ++i) {
        ++reads_seen_;
        if (shouldFail(ops[i], i, reads_seen_,
                       plan_.read_short_every)) {
            if (lat_ns[i] != kFailedOp)
                ++injected_;
            lat_ns[i] = kFailedOp;
        }
        if (lat_ns[i] == kFailedOp)
            noteReadError();
        else
            noteRead(lat_ns[i]);
    }
}

void
FaultInjectingBackend::writeBlocks(std::span<const StorageOp> ops,
                                   std::span<uint32_t> lat_ns)
{
    inner_->writeBlocks(ops, lat_ns);
    for (size_t i = 0; i < ops.size(); ++i) {
        ++writes_seen_;
        if (shouldFail(ops[i], i, writes_seen_,
                       plan_.write_enospc_every)) {
            if (lat_ns[i] != kFailedOp)
                ++injected_;
            lat_ns[i] = kFailedOp;
        }
        if (lat_ns[i] == kFailedOp)
            noteWriteError();
        else
            noteWrite(lat_ns[i]);
    }
}

void
FaultInjectingBackend::trimBlocks(std::span<const StorageOp> ops)
{
    inner_->trimBlocks(ops);
    Backend::trimBlocks(ops);
}

void
FaultInjectingBackend::flush()
{
    inner_->flush();
}

void
FaultInjectingBackend::checkInvariants() const
{
    Backend::checkInvariants();
    inner_->checkInvariants();
    SIEVE_CHECK(stats().read_errors + stats().write_errors >=
                    injected_,
                "injected faults exceed recorded errors");
}

} // namespace storage
} // namespace sievestore

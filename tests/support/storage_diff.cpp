#include "support/storage_diff.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sievestore {
namespace sim {

namespace {

/**
 * The bit-identity contract: everything the model decides or charges,
 * plus the storage op/error *counts* (emission mirrors the model's
 * charges, so counts are backend-independent; only latencies differ).
 */
bool
modelFieldsEqual(const core::DailyReport &a, const core::DailyReport &b)
{
    return a.accesses == b.accesses &&
           a.read_accesses == b.read_accesses && a.hits == b.hits &&
           a.read_hits == b.read_hits && a.write_hits == b.write_hits &&
           a.allocation_write_blocks == b.allocation_write_blocks &&
           a.batch_moved_blocks == b.batch_moved_blocks &&
           a.ssd_read_ios == b.ssd_read_ios &&
           a.ssd_write_ios == b.ssd_write_ios &&
           a.ssd_alloc_ios == b.ssd_alloc_ios &&
           a.storage_read_ios + a.storage_read_errors ==
               b.storage_read_ios + b.storage_read_errors &&
           a.storage_write_ios + a.storage_write_errors ==
               b.storage_write_ios + b.storage_write_errors;
}

} // namespace

StorageDiffResult
runStorageDifferential(trace::TraceReader &reader,
                       const StorageDiffConfig &config)
{
    SIEVE_CHECK(!config.appliance.backend.factory,
                "storage differential pins its own backends; clear "
                "the custom backend factory");

    const auto runOnce = [&](storage::BackendKind kind) {
        core::ApplianceConfig ac = config.appliance;
        ac.backend.kind = kind;
        ac.backend.file = config.file;
        std::unique_ptr<core::Appliance> appliance =
            makeAppliance(config.policy, ac);
        reader.reset();
        runTrace(reader, *appliance, config.driver);
        return appliance->daily();
    };

    StorageDiffResult result;
    result.analytic_days = runOnce(storage::BackendKind::Analytic);
    result.file_days = runOnce(storage::BackendKind::File);

    result.model_identical =
        result.analytic_days.size() == result.file_days.size();
    if (result.model_identical) {
        for (size_t d = 0; d < result.analytic_days.size(); ++d) {
            if (!modelFieldsEqual(result.analytic_days[d],
                                  result.file_days[d])) {
                result.model_identical = false;
                break;
            }
        }
    }

    const size_t n_days = std::min(result.analytic_days.size(),
                                   result.file_days.size());
    result.days.reserve(n_days);
    for (size_t d = 0; d < n_days; ++d) {
        const core::DailyReport &a = result.analytic_days[d];
        const core::DailyReport &f = result.file_days[d];
        StorageDiffDay row;
        row.day = static_cast<int>(d);
        row.predicted_ns = a.storage_read_ns + a.storage_write_ns;
        row.measured_ns = f.storage_read_ns + f.storage_write_ns;
        row.ratio = row.predicted_ns
                        ? static_cast<double>(row.measured_ns) /
                              static_cast<double>(row.predicted_ns)
                        : 0.0;
        if (config.ns_tolerance != 0) {
            const uint64_t diff =
                row.measured_ns > row.predicted_ns
                    ? row.measured_ns - row.predicted_ns
                    : row.predicted_ns - row.measured_ns;
            if (diff > config.ns_tolerance)
                result.within_tolerance = false;
        }
        result.days.push_back(row);
    }
    return result;
}

} // namespace sim
} // namespace sievestore

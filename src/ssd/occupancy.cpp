#include "ssd/occupancy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace ssd {

DriveOccupancyTracker::DriveOccupancyTracker(SsdModel model)
    : ssd(model)
{
    if (ssd.read_iops <= 0.0 || ssd.write_iops <= 0.0)
        util::fatal("occupancy tracker requires positive IOPS ratings");
}

// SIEVE_MAY_ALLOC: per-minute load buckets grow amortized, once per
// simulated minute. The appliance arms its batch-level no-alloc
// region only when no occupancy tracker is configured, so the region
// never covers this path.
void SIEVE_MAY_ALLOC
DriveOccupancyTracker::ensureMinute(size_t minute)
{
    if (minute >= loads.size())
        loads.resize(minute + 1);
}

void
DriveOccupancyTracker::recordReads(util::TimeUs t, uint64_t pages)
{
    if (pages == 0)
        return;
    const size_t minute = util::minuteOf(t);
    ensureMinute(minute);
    loads[minute].read_ios += pages;
    total_reads += pages;
}

void
DriveOccupancyTracker::recordWrites(util::TimeUs t, uint64_t pages)
{
    if (pages == 0)
        return;
    const size_t minute = util::minuteOf(t);
    ensureMinute(minute);
    loads[minute].write_ios += pages;
    total_writes += pages;
}

double
DriveOccupancyTracker::occupancy(size_t minute) const
{
    if (minute >= loads.size())
        return 0.0;
    const MinuteLoad &l = loads[minute];
    const double service =
        static_cast<double>(l.read_ios) * ssd.readService() +
        static_cast<double>(l.write_ios) * ssd.writeService();
    return service / 60.0;
}

std::vector<double>
DriveOccupancyTracker::occupancySeries() const
{
    std::vector<double> out(loads.size());
    for (size_t m = 0; m < loads.size(); ++m)
        out[m] = occupancy(m);
    return out;
}

std::vector<uint32_t>
DriveOccupancyTracker::drivesSeries() const
{
    std::vector<uint32_t> out(loads.size());
    for (size_t m = 0; m < loads.size(); ++m)
        out[m] = static_cast<uint32_t>(std::ceil(occupancy(m)));
    return out;
}

uint32_t
DriveOccupancyTracker::drivesForCoverage(double coverage) const
{
    if (coverage <= 0.0 || coverage > 1.0)
        util::fatal("coverage must be in (0, 1], got %f", coverage);
    std::vector<uint32_t> drives = drivesSeries();
    if (drives.empty())
        return 0;
    std::sort(drives.begin(), drives.end());
    const double n = static_cast<double>(drives.size());
    size_t rank = static_cast<size_t>(std::ceil(coverage * n));
    if (rank == 0)
        rank = 1;
    return drives[rank - 1];
}

uint32_t
DriveOccupancyTracker::maxDrives() const
{
    uint32_t best = 0;
    for (size_t m = 0; m < loads.size(); ++m)
        best = std::max(best,
                        static_cast<uint32_t>(std::ceil(occupancy(m))));
    return best;
}

double
DriveOccupancyTracker::coverageWithDrives(uint32_t drives) const
{
    if (loads.empty())
        return 1.0;
    size_t ok = 0;
    for (size_t m = 0; m < loads.size(); ++m)
        if (std::ceil(occupancy(m)) <= static_cast<double>(drives))
            ++ok;
    return static_cast<double>(ok) / static_cast<double>(loads.size());
}

double
enduranceYears(const SsdModel &model, uint64_t bytes_written,
               double trace_days)
{
    if (trace_days <= 0.0 || bytes_written == 0)
        return std::numeric_limits<double>::infinity();
    const double per_day =
        static_cast<double>(bytes_written) / trace_days;
    return model.endurance_bytes / (per_day * 365.0);
}

} // namespace ssd
} // namespace sievestore

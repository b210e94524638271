#include "stats/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/logging.hpp"

namespace sievestore {
namespace stats {

void
Log2Histogram::add(uint64_t value)
{
    const size_t bucket =
        value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
    if (bucket >= counts.size())
        counts.resize(bucket + 1, 0);
    ++counts[bucket];
    ++total;
    sum += static_cast<double>(value);
}

uint64_t
Log2Histogram::bucketCount(size_t i) const
{
    return i < counts.size() ? counts[i] : 0;
}

uint64_t
Log2Histogram::bucketLow(size_t i)
{
    return i == 0 ? 0 : (1ULL << (i - 1));
}

double
Log2Histogram::mean() const
{
    if (total == 0)
        util::panic("Log2Histogram::mean on empty histogram");
    return sum / static_cast<double>(total);
}

void
EmpiricalDistribution::add(double value)
{
    samples.push_back(value);
    sortedFlag = samples.size() <= 1;
}

void
EmpiricalDistribution::ensureSorted() const
{
    if (!sortedFlag) {
        std::sort(samples.begin(), samples.end());
        sortedFlag = true;
    }
}

double
EmpiricalDistribution::min() const
{
    ensureSorted();
    if (samples.empty())
        util::panic("EmpiricalDistribution::min on empty distribution");
    return samples.front();
}

double
EmpiricalDistribution::max() const
{
    ensureSorted();
    if (samples.empty())
        util::panic("EmpiricalDistribution::max on empty distribution");
    return samples.back();
}

double
EmpiricalDistribution::mean() const
{
    if (samples.empty())
        util::panic("EmpiricalDistribution::mean on empty distribution");
    double s = 0.0;
    for (double v : samples)
        s += v;
    return s / static_cast<double>(samples.size());
}

double
EmpiricalDistribution::percentile(double fraction) const
{
    ensureSorted();
    if (samples.empty())
        util::panic("EmpiricalDistribution::percentile on empty distribution");
    if (fraction <= 0.0)
        return samples.front();
    if (fraction >= 1.0)
        return samples.back();
    // Nearest-rank: smallest index r with (r+1)/n >= fraction.
    const double n = static_cast<double>(samples.size());
    size_t rank = static_cast<size_t>(std::ceil(fraction * n));
    if (rank == 0)
        rank = 1;
    return samples[rank - 1];
}

double
EmpiricalDistribution::cdf(double value) const
{
    ensureSorted();
    if (samples.empty())
        return 0.0;
    const auto it =
        std::upper_bound(samples.begin(), samples.end(), value);
    return static_cast<double>(it - samples.begin()) /
           static_cast<double>(samples.size());
}

const std::vector<double> &
EmpiricalDistribution::sorted() const
{
    ensureSorted();
    return samples;
}

} // namespace stats
} // namespace sievestore

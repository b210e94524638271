/**
 * @file
 * Histograms and empirical-distribution helpers.
 *
 * The popularity-skew analysis (Figures 2 and 3) and the drive-occupancy
 * coverage analysis (Figure 9) both reduce large sample sets to
 * percentile/CDF views; these classes provide the shared machinery.
 */

#ifndef SIEVESTORE_STATS_HISTOGRAM_HPP
#define SIEVESTORE_STATS_HISTOGRAM_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sievestore {
namespace stats {

/**
 * Power-of-two bucketed histogram of non-negative integers: bucket 0
 * holds value 0, bucket i >= 1 holds values in [2^(i-1), 2^i). Used for
 * access-count distributions whose range spans many decades
 * (Figure 2(a)).
 */
class Log2Histogram
{
  public:
    void add(uint64_t value);

    uint64_t count() const { return total; }

    /** Number of occupied buckets (highest bucket index + 1). */
    size_t buckets() const { return counts.size(); }

    uint64_t bucketCount(size_t i) const;

    /** Inclusive lower bound of bucket i. */
    static uint64_t bucketLow(size_t i);

    /** Mean of recorded values. @pre count() > 0. */
    double mean() const;

  private:
    std::vector<uint64_t> counts;
    uint64_t total = 0;
    double sum = 0.0;
};

/**
 * Exact empirical distribution: retains all samples; supports exact
 * percentiles and CDF evaluation. Appropriate for per-minute series
 * (10k points) and per-bin summaries, not raw per-access data.
 */
class EmpiricalDistribution
{
  public:
    void add(double value);

    uint64_t count() const { return samples.size(); }
    double min() const;
    double max() const;
    double mean() const;

    /**
     * Exact percentile by the nearest-rank method.
     * @param fraction in [0, 1]; 0 gives min, 1 gives max.
     * @pre count() > 0
     */
    double percentile(double fraction) const;

    /** Fraction of samples <= value. */
    double cdf(double value) const;

    /** Sorted copy of the samples. */
    const std::vector<double> &sorted() const;

  private:
    void ensureSorted() const;

    mutable std::vector<double> samples;
    mutable bool sortedFlag = true;
};

} // namespace stats
} // namespace sievestore

#endif // SIEVESTORE_STATS_HISTOGRAM_HPP

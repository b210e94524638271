/**
 * @file
 * Unit and property tests for histograms and empirical distributions.
 */

#include <gtest/gtest.h>

#include "stats/histogram.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::stats;
using sievestore::util::Rng;

TEST(Log2Histogram, BucketBoundaries)
{
    Log2Histogram h;
    h.add(0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(4);
    h.add(1024);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucketCount(0), 1u); // value 0
    EXPECT_EQ(h.bucketCount(1), 1u); // value 1
    EXPECT_EQ(h.bucketCount(2), 2u); // values 2-3
    EXPECT_EQ(h.bucketCount(3), 1u); // values 4-7
    EXPECT_EQ(h.bucketCount(11), 1u); // 1024-2047
    EXPECT_EQ(Log2Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketLow(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketLow(11), 1024u);
}

TEST(Log2Histogram, Mean)
{
    Log2Histogram h;
    h.add(10);
    h.add(20);
    h.add(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(EmpiricalDistribution, MinMaxMean)
{
    EmpiricalDistribution d;
    d.add(3.0);
    d.add(1.0);
    d.add(2.0);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

TEST(EmpiricalDistribution, NearestRankPercentile)
{
    EmpiricalDistribution d;
    for (int i = 1; i <= 100; ++i)
        d.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 50.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.999), 100.0);
    // Figure 9's key query: drives at 99.9 % coverage.
    EXPECT_DOUBLE_EQ(d.percentile(0.01), 1.0);
}

TEST(EmpiricalDistribution, Cdf)
{
    EmpiricalDistribution d;
    for (double v : {1.0, 2.0, 2.0, 4.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
    EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.75);
    EXPECT_DOUBLE_EQ(d.cdf(10.0), 1.0);
}

/** Property: cdf(percentile(f)) >= f for any sample set. */
class PercentileProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PercentileProperty, CdfOfPercentileCoversFraction)
{
    Rng rng(GetParam());
    EmpiricalDistribution d;
    const int n = 1 + static_cast<int>(rng.nextBelow(500));
    for (int i = 0; i < n; ++i)
        d.add(rng.nextDouble() * 1000.0 - 500.0);
    for (double f = 0.05; f <= 1.0; f += 0.05)
        EXPECT_GE(d.cdf(d.percentile(f)) + 1e-12, f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty,
                         ::testing::Range<uint64_t>(1, 16));

} // namespace

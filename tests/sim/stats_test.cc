/**
 * @file
 * Unit tests for sim::StatSet and sim::Histogram.
 */

#include <gtest/gtest.h>

#include "src/sim/stats.hh"

using griffin::sim::Histogram;
using griffin::sim::StatSet;

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.set("x", 3.0);
    s.set("x", 7.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 7.0);
}

TEST(StatSet, UnknownNameReadsZeroAndHasIsFalse)
{
    StatSet s;
    EXPECT_DOUBLE_EQ(s.get("nope"), 0.0);
    EXPECT_EQ(s.all().count("nope"), 0u);
}

TEST(StatSet, AllIsSortedSnapshot)
{
    StatSet s;
    s.set("b", 2);
    s.set("a", 1);
    s.set("c", 3);
    const auto all = s.all();
    ASSERT_EQ(all.size(), 3u);
    auto it = all.begin();
    EXPECT_EQ(it->first, "a");
    ++it;
    EXPECT_EQ(it->first, "b");
    ++it;
    EXPECT_EQ(it->first, "c");
    EXPECT_DOUBLE_EQ(it->second, 3.0);
}

TEST(Histogram, BasicMoments)
{
    Histogram h(10.0, 10);
    h.sample(5);
    h.sample(15);
    h.sample(25);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 45.0);
    EXPECT_DOUBLE_EQ(h.mean(), 15.0);
    EXPECT_DOUBLE_EQ(h.min(), 5.0);
    EXPECT_DOUBLE_EQ(h.max(), 25.0);
}

TEST(Histogram, EmptyIsAllZero)
{
    Histogram h(1.0, 4);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, OverflowBucketCatchesLargeSamples)
{
    Histogram h(1.0, 4);
    h.sample(1000.0);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Histogram, PercentileApproximation)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(double(i) + 0.5);
    // p50 should land near 50.
    EXPECT_NEAR(h.percentile(50), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(90), 90.0, 2.0);
}

TEST(Histogram, PercentileEdgesReturnMinAndMax)
{
    Histogram h(10.0, 10);
    h.sample(5.0);
    h.sample(95.0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(-3), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 95.0);
    EXPECT_DOUBLE_EQ(h.percentile(150), 95.0);
}

TEST(Histogram, SingleSampleReportsThatSampleForEveryP)
{
    Histogram h(10.0, 10);
    h.sample(37.0);
    EXPECT_DOUBLE_EQ(h.percentile(1), 37.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 37.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 37.0);
}

TEST(Histogram, AllSamplesInOverflowReportMax)
{
    Histogram h(1.0, 4);
    h.sample(10.0);
    h.sample(20.0);
    // Both land in the overflow bucket, whose upper edge is
    // unbounded; the defined answer is max().
    EXPECT_DOUBLE_EQ(h.percentile(50), 20.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 20.0);
}

TEST(Histogram, PercentileStaysInsideObservedRange)
{
    Histogram h(10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.sample(42.0); // all in bucket 4 [40, 50)
    // The bucket's upper edge (50) exceeds the observed max; the
    // clamp keeps the report honest.
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    const double p99 = h.percentile(99);
    EXPECT_GE(p99, h.min());
    EXPECT_LE(p99, h.max());
}

TEST(Histogram, PercentileIsMonotoneInP)
{
    Histogram h(5.0, 50);
    for (int i = 0; i < 200; ++i)
        h.sample(double(i % 97));
    double prev = h.percentile(0);
    for (int p = 5; p <= 100; p += 5) {
        const double cur = h.percentile(p);
        EXPECT_GE(cur, prev) << "p=" << p;
        prev = cur;
    }
}

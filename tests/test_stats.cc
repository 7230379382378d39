/**
 * @file
 * Unit tests for counters, accumulators, and histograms.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace {

using wisync::sim::Accumulator;
using wisync::sim::Counter;
using wisync::sim::Histogram;

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Accumulator, TracksMinMaxMean)
{
    Accumulator a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2);
    a.sample(4);
    a.sample(12);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 12.0);
    EXPECT_DOUBLE_EQ(a.mean(), 6.0);
}

TEST(Accumulator, SingleSample)
{
    Accumulator a;
    a.sample(-3.5);
    EXPECT_DOUBLE_EQ(a.min(), -3.5);
    EXPECT_DOUBLE_EQ(a.max(), -3.5);
    EXPECT_DOUBLE_EQ(a.mean(), -3.5);
}

TEST(Histogram, Log2Buckets)
{
    Histogram h;
    h.sample(0); // bucket 0
    h.sample(1); // bucket 0
    h.sample(2); // bucket 1
    h.sample(3); // bucket 1
    h.sample(4); // bucket 2
    h.sample(1024); // bucket 10
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(10), 1u);
    EXPECT_EQ(h.bucket(63), 0u);
    EXPECT_EQ(h.acc().count(), 6u);
}

} // namespace

/**
 * @file
 * Unit tests for the statistics framework (counters, histograms,
 * samplers, stat groups, table printer).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "stats/histogram.hh"
#include "stats/sampler.hh"
#include "stats/stat_group.hh"
#include "stats/table.hh"

namespace pageforge
{
namespace
{

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatGroup, DumpsRegisteredStats)
{
    StatGroup group("g");
    Counter c;
    c += 7;
    group.addCounter("events", "things that happened", c);
    group.addStat("derived", "twice the events",
                  [&c] { return 2.0 * c.value(); });

    EXPECT_DOUBLE_EQ(group.value("events"), 7.0);
    EXPECT_DOUBLE_EQ(group.value("derived"), 14.0);
    EXPECT_TRUE(group.hasStat("events"));
    EXPECT_FALSE(group.hasStat("missing"));

    std::ostringstream os;
    group.dump(os);
    EXPECT_NE(os.str().find("g.events"), std::string::npos);
    EXPECT_NE(os.str().find("things that happened"), std::string::npos);
}

TEST(StatGroup, ChildGroupsDumpHierarchically)
{
    StatGroup parent("sys");
    StatGroup child("mem");
    Counter c;
    child.addCounter("reads", "", c);
    parent.addChild(child);

    std::ostringstream os;
    parent.dump(os);
    EXPECT_NE(os.str().find("sys.mem.reads"), std::string::npos);
}

TEST(Histogram, BucketsAndMean)
{
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(i);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.mean(), 49.5, 1e-9);
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    for (auto bucket : h.buckets())
        EXPECT_EQ(bucket, 10u);
}

TEST(Histogram, UnderflowAndOverflow)
{
    Histogram h(10.0, 20.0, 5);
    h.sample(5.0);
    h.sample(25.0);
    h.sample(15.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.minSample(), 5.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 25.0);
}

TEST(Histogram, QuantileApproximation)
{
    Histogram h(0.0, 1000.0, 100);
    for (int i = 0; i < 1000; ++i)
        h.sample(i);
    EXPECT_NEAR(h.quantile(0.5), 500.0, 15.0);
    EXPECT_NEAR(h.quantile(0.95), 950.0, 15.0);
}

TEST(Sampler, ExactQuantiles)
{
    Sampler s;
    for (int i = 1; i <= 100; ++i)
        s.sample(i);
    EXPECT_DOUBLE_EQ(s.quantile(0.95), 95.0);
    EXPECT_DOUBLE_EQ(s.p95(), 95.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(s.minSample(), 1.0);
    EXPECT_DOUBLE_EQ(s.maxSample(), 100.0);
    EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Sampler, QuantileAfterMoreSamples)
{
    Sampler s;
    s.sample(10.0);
    EXPECT_DOUBLE_EQ(s.p95(), 10.0);
    // Adding samples after a quantile query must re-sort correctly.
    s.sample(1.0);
    s.sample(20.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 20.0);
}

TEST(Sampler, StddevOfConstantIsZero)
{
    Sampler s;
    for (int i = 0; i < 10; ++i)
        s.sample(7.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Sampler, StddevKnownValue)
{
    Sampler s;
    s.sample(2.0);
    s.sample(4.0);
    s.sample(4.0);
    s.sample(4.0);
    s.sample(5.0);
    s.sample(5.0);
    s.sample(7.0);
    s.sample(9.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-9);
}

TEST(TablePrinter, AlignsAndFormats)
{
    TablePrinter table("Demo");
    table.setHeader({"App", "Value"});
    table.addRow({"silo", TablePrinter::fmt(1.2345, 2)});
    table.addSeparator();
    table.addRow({"avg", TablePrinter::pct(0.481)});

    std::ostringstream os;
    table.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("1.23"), std::string::npos);
    EXPECT_NE(out.find("48.1%"), std::string::npos);
}

TEST(TablePrinter, RowWidthMismatchPanics)
{
    TablePrinter table("Bad");
    table.setHeader({"a", "b"});
    EXPECT_DEATH(table.addRow({"only one"}), "cells");
}

TEST(Histogram, QuantileOfEmptyIsZero)
{
    Histogram h(0.0, 100.0, 10);
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileSingleBucketInterpolates)
{
    // All mass in one bucket: quantiles interpolate linearly across
    // that bucket's width rather than collapsing to its edge.
    Histogram h(0.0, 100.0, 10);
    for (int i = 0; i < 4; ++i)
        h.sample(45.0); // bucket [40, 50)
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 42.5);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 45.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
}

TEST(Histogram, QuantileAllUnderflowReturnsLo)
{
    Histogram h(10.0, 20.0, 5);
    h.sample(1.0);
    h.sample(2.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
}

TEST(Sampler, QuantileOfEmptyIsZero)
{
    Sampler s;
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(s.p95(), 0.0);
    EXPECT_DOUBLE_EQ(s.minSample(), 0.0);
    EXPECT_DOUBLE_EQ(s.maxSample(), 0.0);
}

TEST(StatGroup, DuplicateStatNamePanics)
{
    StatGroup group("dup");
    Counter c;
    group.addCounter("events", "", c);
    EXPECT_DEATH(group.addCounter("events", "", c), "duplicate stat");
}

} // namespace
} // namespace pageforge

// Unit tests for the statistics package and the text-table formatter.

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace {

using namespace rrs::stats;

TEST(Scalar, IncrementAndAssign)
{
    Group g("g");
    Scalar s(&g, "count", "a counter");
    ++s;
    s += 3.5;
    EXPECT_DOUBLE_EQ(s.value(), 4.5);
    s = 10;
    EXPECT_DOUBLE_EQ(s.value(), 10);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0);
}

TEST(Average, MeanMinMax)
{
    Group g("g");
    Average a(&g, "occ", "occupancy");
    a.sample(2);
    a.sample(4);
    a.sample(9);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.samples(), 3u);
}

TEST(Average, EmptyIsZero)
{
    Group g("g");
    Average a(&g, "x", "");
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(DistributionStat, FractionsAndMean)
{
    Group g("g");
    Distribution d(&g, "uses", "consumer counts");
    d.sample(1, 50);
    d.sample(2, 30);
    d.sample(5, 20);
    EXPECT_EQ(d.samples(), 100u);
    EXPECT_DOUBLE_EQ(d.fraction(1), 0.5);
    EXPECT_DOUBLE_EQ(d.fraction(2), 0.3);
    EXPECT_DOUBLE_EQ(d.fraction(3), 0.0);
    EXPECT_DOUBLE_EQ(d.mean(), (1 * 50 + 2 * 30 + 5 * 20) / 100.0);
}

TEST(DistributionPercentile, EmptyIsZero)
{
    Group g("g");
    Distribution d(&g, "lat", "");
    EXPECT_DOUBLE_EQ(d.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 0.0);
}

TEST(DistributionPercentile, SingleSampleIsItself)
{
    Group g("g");
    Distribution d(&g, "lat", "");
    d.sample(42);
    EXPECT_DOUBLE_EQ(d.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(37), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(d.percentile(100), 42.0);
}

TEST(DistributionPercentile, OutOfRangePClampsToExtremes)
{
    Group g("g");
    Distribution d(&g, "lat", "");
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_DOUBLE_EQ(d.percentile(-5), 10.0);
    EXPECT_DOUBLE_EQ(d.percentile(250), 30.0);
    // And the empty/one-sample pins hold for out-of-range p too.
    Distribution e(&g, "lat2", "");
    EXPECT_DOUBLE_EQ(e.percentile(-5), 0.0);
    EXPECT_DOUBLE_EQ(e.percentile(250), 0.0);
    e.sample(7);
    EXPECT_DOUBLE_EQ(e.percentile(-5), 7.0);
    EXPECT_DOUBLE_EQ(e.percentile(250), 7.0);
}

TEST(DistributionPercentile, InterpolatesBetweenSamples)
{
    Group g("g");
    Distribution d(&g, "lat", "");
    // Sorted samples: 10, 20 — rank p/100 * 1.
    d.sample(10);
    d.sample(20);
    EXPECT_DOUBLE_EQ(d.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(d.percentile(50), 15.0);
    EXPECT_DOUBLE_EQ(d.percentile(75), 17.5);
    EXPECT_DOUBLE_EQ(d.percentile(100), 20.0);
}

TEST(DistributionPercentile, BucketEdges)
{
    Group g("g");
    Distribution d(&g, "lat", "");
    // Sorted samples: 1, 1, 1, 5 (positions 0..3).
    d.sample(1, 3);
    d.sample(5, 1);
    // Rank 50% = 1.5 — inside the run of 1s: no interpolation.
    EXPECT_DOUBLE_EQ(d.percentile(50), 1.0);
    // Rank 2/3*3 = 2.0 — exactly the last 1.
    EXPECT_DOUBLE_EQ(d.percentile(200.0 / 3.0), 1.0);
    // Rank 75% = 2.25 — straddles the 1 -> 5 bucket edge.
    EXPECT_DOUBLE_EQ(d.percentile(75), 1.0 + 0.25 * 4.0);
    // Rank 100% = the lone 5.
    EXPECT_DOUBLE_EQ(d.percentile(100), 5.0);
}

TEST(DistributionPercentile, ClampsOutOfRangeP)
{
    Group g("g");
    Distribution d(&g, "lat", "");
    d.sample(3);
    d.sample(9);
    EXPECT_DOUBLE_EQ(d.percentile(-5), 3.0);
    EXPECT_DOUBLE_EQ(d.percentile(150), 9.0);
}

TEST(DistributionPercentile, MedianOfOddCountIsExactSample)
{
    Group g("g");
    Distribution d(&g, "lat", "");
    d.sample(2);
    d.sample(4);
    d.sample(8);
    EXPECT_DOUBLE_EQ(d.percentile(50), 4.0);
    EXPECT_DOUBLE_EQ(d.percentile(25), 3.0);
    EXPECT_DOUBLE_EQ(d.percentile(75), 6.0);
}

TEST(GroupDump, NestedPrefixes)
{
    Group root("core");
    Group child("rename", &root);
    Scalar s1(&root, "cycles", "total cycles");
    Scalar s2(&child, "stalls", "rename stalls");
    s1 = 100;
    s2 = 7;
    std::ostringstream oss;
    root.dump(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("core.cycles 100"), std::string::npos);
    EXPECT_NE(out.find("core.rename.stalls 7"), std::string::npos);
}

TEST(GroupDump, ResetRecurses)
{
    Group root("r");
    Group child("c", &root);
    Scalar s(&child, "n", "");
    s = 5;
    root.resetStats();
    EXPECT_DOUBLE_EQ(s.value(), 0);
}

TEST(TextTable, AlignedOutput)
{
    TextTable t({"bench", "speedup"});
    t.row().cell("mcf").cell(1.0471, 3);
    t.row().cell("lbm").cell(1.122, 3);
    std::ostringstream oss;
    t.print(oss, "Figure 10");
    std::string out = oss.str();
    EXPECT_NE(out.find("Figure 10"), std::string::npos);
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("1.047"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

} // namespace

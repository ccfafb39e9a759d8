// Unit tests for the percentile helper and the text-table formatter.

#include <gtest/gtest.h>

#include <sstream>

#include "stats/stats.hh"
#include "stats/table.hh"

namespace {

using namespace rrs::stats;

TEST(DistributionPercentile, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0), 0.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(percentile({}, 100), 0.0);
}

TEST(DistributionPercentile, SingleSampleIsItself)
{
    const std::vector<std::uint64_t> d = {42};
    EXPECT_DOUBLE_EQ(percentile(d, 0), 42.0);
    EXPECT_DOUBLE_EQ(percentile(d, 37), 42.0);
    EXPECT_DOUBLE_EQ(percentile(d, 50), 42.0);
    EXPECT_DOUBLE_EQ(percentile(d, 100), 42.0);
}

TEST(DistributionPercentile, OutOfRangePClampsToExtremes)
{
    EXPECT_DOUBLE_EQ(percentile({10, 20, 30}, -5), 10.0);
    EXPECT_DOUBLE_EQ(percentile({10, 20, 30}, 250), 30.0);
    // And the empty/one-sample pins hold for out-of-range p too.
    EXPECT_DOUBLE_EQ(percentile({}, -5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({}, 250), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7}, -5), 7.0);
    EXPECT_DOUBLE_EQ(percentile({7}, 250), 7.0);
}

TEST(DistributionPercentile, InterpolatesBetweenSamples)
{
    // Sorted samples: 10, 20 — rank p/100 * 1.
    const std::vector<std::uint64_t> d = {20, 10};
    EXPECT_DOUBLE_EQ(percentile(d, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(d, 50), 15.0);
    EXPECT_DOUBLE_EQ(percentile(d, 75), 17.5);
    EXPECT_DOUBLE_EQ(percentile(d, 100), 20.0);
}

TEST(DistributionPercentile, BucketEdges)
{
    // Sorted samples: 1, 1, 1, 5 (positions 0..3), given unsorted.
    const std::vector<std::uint64_t> d = {1, 5, 1, 1};
    // Rank 50% = 1.5 — inside the run of 1s: no interpolation.
    EXPECT_DOUBLE_EQ(percentile(d, 50), 1.0);
    // Rank 2/3*3 = 2.0 — exactly the last 1.
    EXPECT_DOUBLE_EQ(percentile(d, 200.0 / 3.0), 1.0);
    // Rank 75% = 2.25 — straddles the 1 -> 5 edge.
    EXPECT_DOUBLE_EQ(percentile(d, 75), 1.0 + 0.25 * 4.0);
    // Rank 100% = the lone 5.
    EXPECT_DOUBLE_EQ(percentile(d, 100), 5.0);
}

TEST(DistributionPercentile, ClampsOutOfRangeP)
{
    EXPECT_DOUBLE_EQ(percentile({3, 9}, -5), 3.0);
    EXPECT_DOUBLE_EQ(percentile({3, 9}, 150), 9.0);
}

TEST(DistributionPercentile, MedianOfOddCountIsExactSample)
{
    const std::vector<std::uint64_t> d = {8, 2, 4};
    EXPECT_DOUBLE_EQ(percentile(d, 50), 4.0);
    EXPECT_DOUBLE_EQ(percentile(d, 25), 3.0);
    EXPECT_DOUBLE_EQ(percentile(d, 75), 6.0);
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

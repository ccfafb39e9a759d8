// Tests for the experiment harness: config construction, equal-area
// mapping, outcome extraction, and suite aggregation.

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "rename/scheme.hh"

namespace {

using namespace rrs;
using namespace rrs::harness;

/** FNV-1a over a series of values: a compact pin for long outputs. */
std::uint64_t
fnv1a(const std::vector<std::uint32_t> &values,
      std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (std::uint32_t v : values) {
        for (int b = 0; b < 4; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

TEST(Harness, TableIIIPresetsMatchPaper)
{
    const auto &rows = rename::reuseEqualAreaPresets(true);
    ASSERT_EQ(rows.size(), 7u);
    EXPECT_EQ(rows[0].baselineRegs, 48u);
    EXPECT_EQ(rows[0].banks, (rename::BankConfig{28, 4, 4, 4}));
    EXPECT_EQ(rows[6].baselineRegs, 112u);
    EXPECT_EQ(rows[6].banks, (rename::BankConfig{75, 8, 8, 8}));
}

TEST(Harness, TunedRowsFitEqualArea)
{
    area::AreaModel model;
    for (const auto &row : rename::reuseEqualAreaPresets(false)) {
        double budget = model.regFileArea(row.baselineRegs, 64);
        double used = model.bankedRegFileArea(row.banks, 64);
        EXPECT_LE(used, budget * 1.001)
            << "row " << row.baselineRegs << " exceeds its area budget";
        // And it is not wastefully small either: adding two more
        // registers would overflow the budget.
        auto bigger = row.banks;
        bigger[0] += 2;
        EXPECT_GT(model.bankedRegFileArea(bigger, 64), budget);
    }
}

TEST(Harness, EqualAreaLookupExactAndNearest)
{
    EXPECT_EQ(equalAreaBanks(48, true), (rename::BankConfig{28, 4, 4, 4}));
    EXPECT_EQ(equalAreaBanks(48, false),
              rename::reuseEqualAreaPresets(false)[0].banks);
    // Nearest row for a non-preset size.
    EXPECT_EQ(equalAreaBanks(50, true), (rename::BankConfig{28, 4, 4, 4}));
}

TEST(Harness, SolveEqualAreaTracksPreset)
{
    area::AreaModel model;
    rename::BankConfig solved =
        solveEqualAreaBanks(model, 64, 64, false);
    // Shadow banks follow the preset shape; bank0 is solver-derived
    // and must be close to the stored row.
    rename::BankConfig stored = equalAreaBanks(64, false);
    EXPECT_EQ(solved[1], stored[1]);
    EXPECT_NEAR(static_cast<double>(solved[0]),
                static_cast<double>(stored[0]), 2.0);
}

TEST(Harness, RunOnProducesConsistentOutcome)
{
    auto cfg = baselineConfig(96);
    cfg.maxInsts = 30'000;
    auto out = runOn(workloads::workload("int_crc"), cfg);
    EXPECT_EQ(out.sim.committedInsts, 30'000u);
    EXPECT_GT(out.sim.ipc(), 0.1);
    EXPECT_GT(out.allocations, 0);
    EXPECT_EQ(out.reuses, 0);   // baseline never reuses
}

TEST(Harness, ReuseConfigActuallyReuses)
{
    auto cfg = reuseConfig(64);
    cfg.maxInsts = 30'000;
    auto out = runOn(workloads::workload("fp_horner"), cfg);
    EXPECT_EQ(out.sim.committedInsts, 30'000u);
    EXPECT_GT(out.reuses, 1000);
    EXPECT_GT(out.fig12.total(), 0);
}

TEST(Harness, SharingSamplerCollectsSeries)
{
    auto cfg = reuseConfig(64);
    cfg.maxInsts = 30'000;
    auto out = runOn(workloads::workload("fp_horner"), cfg, true);
    EXPECT_FALSE(out.sharedAtLeast1.empty());
    // sharedAtLeast is monotone in depth at every sample.
    for (std::size_t i = 0; i < out.sharedAtLeast1.size(); ++i) {
        EXPECT_GE(out.sharedAtLeast1[i], out.sharedAtLeast2[i]);
        EXPECT_GE(out.sharedAtLeast2[i], out.sharedAtLeast3[i]);
    }
    // One point per simulated cycle with now % 128 == 0, and the exact
    // series pinned: the Fig. 9 bank sizing is read off these values.
    EXPECT_EQ(out.sharedAtLeast1.size(), (out.sim.cycles + 127) / 128);
    EXPECT_EQ(out.sharedAtLeast2.size(), out.sharedAtLeast1.size());
    EXPECT_EQ(out.sharedAtLeast3.size(), out.sharedAtLeast1.size());
    EXPECT_EQ(out.sharedAtLeast1.size(), 143u);
    EXPECT_EQ(fnv1a(out.sharedAtLeast3,
                    fnv1a(out.sharedAtLeast2, fnv1a(out.sharedAtLeast1))),
              0xb1caca9c117a0e7cULL);
}

TEST(Harness, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Harness, RunsAreDeterministic)
{
    auto cfg = reuseConfig(56);
    cfg.maxInsts = 20'000;
    auto a = runOn(workloads::workload("int_graph"), cfg);
    auto b = runOn(workloads::workload("int_graph"), cfg);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.reuses, b.reuses);
}

} // namespace

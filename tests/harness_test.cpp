// Tests for the experiment harness: config construction, equal-area
// mapping, outcome extraction, and suite aggregation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>

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
    EXPECT_EQ(rename::reuseEqualAreaBanks(48, true),
              (rename::BankConfig{28, 4, 4, 4}));
    EXPECT_EQ(rename::reuseEqualAreaBanks(48, false),
              rename::reuseEqualAreaPresets(false)[0].banks);
    // Nearest row for a non-preset size.
    EXPECT_EQ(rename::reuseEqualAreaBanks(50, true),
              (rename::BankConfig{28, 4, 4, 4}));
}

TEST(Harness, SolveEqualAreaTracksPreset)
{
    area::AreaModel model;
    rename::BankConfig solved =
        solveEqualAreaBanks(model, 64, 64, false);
    // Shadow banks follow the preset shape; bank0 is solver-derived
    // and must be close to the stored row.
    rename::BankConfig stored = rename::reuseEqualAreaBanks(64, false);
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
    EXPECT_GT(out.allocations, 0u);
    EXPECT_EQ(out.reuses, 0u);   // baseline never reuses
}

TEST(Harness, ReuseConfigActuallyReuses)
{
    auto cfg = reuseConfig(64);
    cfg.maxInsts = 30'000;
    auto out = runOn(workloads::workload("fp_horner"), cfg);
    EXPECT_EQ(out.sim.committedInsts, 30'000u);
    EXPECT_GT(out.reuses, 1000u);
    EXPECT_GT(out.fig12.total(), 0u);
}

TEST(Harness, SharingSamplerCollectsSeries)
{
    auto cfg = reuseConfig(64);
    cfg.maxInsts = 30'000;
    auto out = runOn(workloads::workload("fp_horner"), cfg, true);
    ASSERT_FALSE(out.occupancy.empty());
    std::vector<std::uint32_t> s1, s2, s3;
    for (std::size_t i = 0; i < out.occupancy.size(); ++i) {
        const OccupancySample &s = out.occupancy[i];
        // One sample per simulated cycle with now % 128 == 0.
        EXPECT_EQ(s.tick, 128 * i);
        // sharedAtLeast is monotone in depth at every sample.
        EXPECT_GE(s.sharedAtLeast[0], s.sharedAtLeast[1]);
        EXPECT_GE(s.sharedAtLeast[1], s.sharedAtLeast[2]);
        s1.push_back(s.sharedAtLeast[0]);
        s2.push_back(s.sharedAtLeast[1]);
        s3.push_back(s.sharedAtLeast[2]);
    }
    // The exact series pinned: the Fig. 9 bank sizing is read off
    // these values.
    EXPECT_EQ(out.occupancy.size(), (out.sim.cycles + 127) / 128);
    EXPECT_EQ(out.occupancy.size(), 143u);
    EXPECT_EQ(fnv1a(s3, fnv1a(s2, fnv1a(s1))), 0xb1caca9c117a0e7cULL);
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

/**
 * Outcome counters that neither the goldens, the ledger nor
 * pipeline_pins_test pin exactly: the conditional-branch accuracy, the
 * rename-history peak and the four Fig. 12 classes.  Table I shape,
 * 56 registers, 20k instructions, on pipeline_pins_test's workloads.
 */
struct CounterPin
{
    const char *workload;
    const char *scheme;
    double condAccuracy;
    std::uint64_t historyPeak;
    std::uint64_t fig12[4];   //!< reuse ok/wrong, no-reuse ok/wrong
};

// clang-format off
const CounterPin kCounterPins[] = {
    {"int_sort", "baseline", 0.70802182259042235, 24,
     {0, 0, 0, 0}},
    {"int_sort", "reuse", 0.70099532805200082, 109,
     {1849, 1497, 3941, 2841}},
    {"int_hash", "baseline", 0.75883720930232557, 24,
     {0, 0, 0, 0}},
    {"int_hash", "reuse", 0.75497308682424524, 119,
     {523, 4671, 2240, 4370}},
    {"int_graph", "baseline", 0.68412698412698414, 24,
     {0, 0, 0, 0}},
    {"int_graph", "reuse", 0.68508412914961347, 100,
     {1365, 2025, 4097, 3907}},
    {"fp_fir", "baseline", 0.89838909541511769, 33,
     {0, 0, 0, 0}},
    {"fp_fir", "reuse", 0.89011663597298951, 111,
     {4147, 592, 1574, 6174}},
    {"fp_nbody", "baseline", 0.89779326364692214, 46,
     {0, 0, 0, 0}},
    {"fp_nbody", "reuse", 0.89583333333333337, 163,
     {2470, 2707, 3012, 5622}},
    {"media_adpcm", "baseline", 0.66444592493892962, 24,
     {0, 0, 0, 0}},
    {"media_adpcm", "reuse", 0.65791540446538765, 99,
     {240, 3291, 3826, 4175}},
    {"cog_knn", "baseline", 0.91849710982658961, 37,
     {0, 0, 0, 0}},
    {"cog_knn", "reuse", 0.91049913941480209, 149,
     {3874, 2147, 1076, 5040}},
};
// clang-format on

/** A pin as a kCounterPins row, for re-pinning after a deliberate change. */
std::string
counterRow(const CounterPin &p)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", \"%s\", %.17g, %" PRIu64 ",\n"
                  "     {%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  "}},",
                  p.workload, p.scheme, p.condAccuracy, p.historyPeak,
                  p.fig12[0], p.fig12[1], p.fig12[2], p.fig12[3]);
    return buf;
}

TEST(Harness, OutcomeCountersArePinned)
{
    const char *const workloadNames[] = {"int_sort", "int_hash",
                                         "int_graph", "fp_fir",
                                         "fp_nbody", "media_adpcm",
                                         "cog_knn"};
    std::size_t row = 0;
    for (const char *w : workloadNames) {
        for (const char *scheme : {"baseline", "reuse"}) {
            RunConfig cfg = schemeConfig(scheme, 56);
            cfg.maxInsts = 20'000;
            const Outcome out = runOn(workloads::workload(w), cfg);
            const CounterPin got{
                w, scheme, out.condAccuracy, out.historyPeak,
                {out.fig12.reuseCorrect, out.fig12.reuseWrong,
                 out.fig12.noReuseCorrect, out.fig12.noReuseWrong}};
            ASSERT_LT(row, std::size(kCounterPins))
                << "no pin row; measured:\n" << counterRow(got);
            const CounterPin &want = kCounterPins[row++];
            EXPECT_STREQ(want.workload, w);
            EXPECT_STREQ(want.scheme, scheme);
            EXPECT_TRUE(want.condAccuracy == got.condAccuracy &&
                        want.historyPeak == got.historyPeak &&
                        std::equal(std::begin(want.fig12),
                                   std::end(want.fig12),
                                   std::begin(got.fig12)))
                << "pinned:\n" << counterRow(want) << "\nmeasured:\n"
                << counterRow(got);
        }
    }
    EXPECT_EQ(row, std::size(kCounterPins));
}

} // namespace

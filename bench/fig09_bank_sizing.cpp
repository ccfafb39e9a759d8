/**
 * @file
 * Figure 9: the bank-sizing study — how many physical registers with
 * 1, 2 and 3 shadow cells are needed to cover a given percentage of
 * execution time, measured with effectively unbounded shadow banks on
 * the SPECfp-like suite (the paper's methodology for tuning Table III).
 *
 * The per-workload sampling runs execute in one parallel sweep; the
 * sampled series are concatenated in submission order, so the
 * percentile table is bit-identical for every thread count.
 */

#include <algorithm>

#include "common.hh"

using namespace rrs;

namespace {

std::uint32_t
percentile(std::vector<std::uint32_t> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    auto idx = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1));
    return values[idx];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Figure 9: shadow-cell bank sizing",
                  "registers with k shadow cells needed to cover X% of "
                  "SPECfp execution time; small counts suffice");

    // Unbounded banks: every free register has 3 shadow cells.  The
    // bank overrides replace the equal-area configuration wholesale.
    const auto m = harness::parseSweepMatrix(R"({
  "schemes": [{"scheme": "reuse", "label": "unbounded shadow banks",
               "params": {"bank0": 32, "bank1": 0,
                          "bank2": 0, "bank3": 96}}],
  "rf_sizes": [64],
  "suite": "specfp",
  "sample_sharing": true
})");
    const auto ws = bench::matrixWorkloads(m);
    auto outs = bench::sweeper().outcomes(
        harness::expandSweepMatrix(m, ws, bench::capInsts()));

    std::vector<std::uint32_t> s1, s2, s3;
    for (const auto &out : outs) {
        s1.insert(s1.end(), out.sharedAtLeast1.begin(),
                  out.sharedAtLeast1.end());
        s2.insert(s2.end(), out.sharedAtLeast2.begin(),
                  out.sharedAtLeast2.end());
        s3.insert(s3.end(), out.sharedAtLeast3.begin(),
                  out.sharedAtLeast3.end());
    }

    stats::TextTable t({"coverage", ">=1 shadow", ">=2 shadow",
                        ">=3 shadow"});
    for (double p : {0.50, 0.75, 0.90, 0.95, 0.99}) {
        t.row()
            .cell(std::to_string(static_cast<int>(p * 100)) + "%")
            .cell(static_cast<std::uint64_t>(percentile(s1, p)))
            .cell(static_cast<std::uint64_t>(percentile(s2, p)))
            .cell(static_cast<std::uint64_t>(percentile(s3, p)));
    }
    t.print(std::cout,
            "Registers simultaneously sharing at >= k versions "
            "(both classes combined, percentile over sampled cycles)");
    std::printf("\nShape checks: counts fall steeply with k (deep "
                "chains are rare) and the 90-95%% coverage points "
                "motivate small shadow banks, as in the paper's "
                "Table III and this repo's tuned rows.\n");
    bench::finish();
    return 0;
}

/**
 * @file
 * Figure 12: accuracy of the register type predictor — the breakdown
 * of released registers into correctly/incorrectly predicted-reused
 * and correctly/incorrectly predicted-normal.
 *
 * Paper reference (SPECfp): ~2.28% of instructions lose a reuse
 * opportunity to a wrong not-single-use prediction and ~3.1% are
 * reused incorrectly (requiring repair); the large majority of
 * predictions are correct.
 *
 * All workloads run in one parallel sweep (proposed scheme, 64-reg
 * equal-area point) before the table is printed.
 */

#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Figure 12: register type predictor accuracy",
                  "most predictions correct; ~2.28% lost opportunities "
                  "and ~3.1% repaired mispredictions in SPECfp");

    const auto m = harness::parseSweepMatrix(R"({
  "schemes": ["reuse"],
  "rf_sizes": [64]
})");
    const auto all = bench::matrixWorkloads(m);
    auto outs = bench::sweeper().outcomes(
        harness::expandSweepMatrix(m, all, bench::capInsts()));

    stats::TextTable t({"workload", "reuse-ok%", "reuse-wrong%",
                        "normal-ok%", "normal-wrong%", "repairs/1k"});
    for (const auto &suite : workloads::suiteNames()) {
        std::vector<double> ok;
        for (std::size_t wi = 0; wi < all.size(); ++wi) {
            if (all[wi].suite != suite)
                continue;
            const auto &out = outs[wi];
            auto f = out.fig12;
            const double total =
                f.total() > 0 ? static_cast<double>(f.total()) : 1.0;
            t.row()
                .cell(all[wi].name)
                .cell(100.0 * f.reuseCorrect / total, 1)
                .cell(100.0 * f.reuseWrong / total, 1)
                .cell(100.0 * f.noReuseCorrect / total, 1)
                .cell(100.0 * f.noReuseWrong / total, 1)
                .cell(1000.0 * out.repairs /
                          static_cast<double>(out.sim.committedInsts),
                      2);
            ok.push_back(100.0 * (f.reuseCorrect + f.noReuseCorrect) /
                         total);
        }
        if (ok.empty())
            continue;  // suite filtered out
        double mean = 0;
        for (double v : ok)
            mean += v;
        t.row().cell("MEAN-correct(" + suite + ")")
            .cell(mean / static_cast<double>(ok.size()), 1)
            .cell("").cell("").cell("").cell("");
    }
    t.print(std::cout, "Released-register prediction breakdown "
                       "(proposed scheme, 64-reg equal-area config)");
    std::printf("\nShape checks: correct classifications dominate; "
                "repair micro-ops stay at a few per thousand committed "
                "instructions (paper: mispredicted reuses ~3%%).\n");
    bench::finish();
    return 0;
}

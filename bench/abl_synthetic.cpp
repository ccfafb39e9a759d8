/**
 * @file
 * Ablation C: sensitivity to the single-use fraction, swept directly
 * with the synthetic stream generator — something no fixed workload
 * can do.  Validates the paper's core premise: the benefit of register
 * sharing grows with the fraction of single-use values.
 *
 * Each fraction's stream is captured once and both schemes replay it
 * through harness::runOn at their 48-register equal-area
 * configurations, like every harness run (so RRS_AUDIT audits them).
 * The (fraction x scheme) grid runs in parallel on the thread pool;
 * every run owns its cursor, models and seed, so the table is
 * bit-identical for every RRS_THREADS value.
 */

#include "common.hh"
#include "trace/synthetic.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Ablation: single-use fraction sweep (synthetic)",
                  "speedup of the proposed scheme grows with the "
                  "injected single-use fraction");

    const std::vector<double> fractions = {0.0, 0.2, 0.4, 0.6, 0.8};
    std::vector<trace::TracePtr> traces;
    for (double f : fractions) {
        trace::SyntheticParams sp;
        sp.numInsts = 120'000;
        sp.singleUseFraction = f;
        sp.redefFraction = 0.8;
        // Keep control flow predictable and memory light so register
        // pressure, not branch or cache behaviour, dominates the sweep.
        sp.branchFraction = 0.06;
        sp.takenFraction = 0.98;
        sp.loadFraction = 0.15;
        sp.storeFraction = 0.05;
        traces.push_back(trace::captureSynthetic(sp));
    }
    // Grid cells: [2*i] baseline, [2*i+1] proposed.
    std::vector<double> cycles(fractions.size() * 2);
    ThreadPool pool;
    pool.parallelFor(cycles.size(), [&](std::size_t k) {
        const harness::RunConfig cfg =
            harness::schemeConfig(k % 2 ? "reuse" : "baseline", 48);
        cycles[k] = static_cast<double>(
            harness::runOn(traces[k / 2], cfg).sim.cycles);
    });

    stats::TextTable t({"single-use fraction", "baseline cycles",
                        "proposed cycles", "speedup"});
    double last = 0;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
        double b = cycles[2 * i];
        double p = cycles[2 * i + 1];
        t.row().cell(fractions[i], 1).cell(b, 0).cell(p, 0)
            .cell(b / p, 3);
        last = b / p;
    }
    t.print(std::cout,
            "Equal-area speedup vs injected single-use fraction "
            "(48-register class, synthetic workload)");
    std::printf("\nShape checks: speedup rises with the single-use "
                "fraction (%.3f at 0.8); at 0.0 the proposed scheme "
                "pays its capacity deficit with little reuse to "
                "recover it.\n", last);
    bench::finish();
    return 0;
}

/**
 * @file
 * Figure 1: percentage of instructions with a destination register
 * that are the only consumers of a register value, split between
 * consumers that redefine the single-use register and consumers that
 * redefine a different logical register.
 *
 * Paper shapes to hold: SPECfp > 50% total, SPECint > 30% total, with
 * a substantial redefining share in both.
 *
 * The per-workload usage analyses run in parallel on the thread pool;
 * the table is assembled from in-order results.
 */

#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Figure 1: single-consumer instruction fractions",
                  "SPECfp > 50%, SPECint > 30% of instructions are sole "
                  "consumers of a value");

    const auto all = bench::selectedWorkloads();
    auto reports = bench::usageReports(all);

    stats::TextTable t({"workload", "suite", "redefining%", "other%",
                        "total%"});
    for (const auto &suite : workloads::suiteNames()) {
        std::vector<double> redefs, others;
        for (std::size_t wi = 0; wi < all.size(); ++wi) {
            if (all[wi].suite != suite)
                continue;
            const auto &rep = reports[wi];
            double r = 100.0 * rep.fracSingleConsumerRedef();
            double o = 100.0 * rep.fracSingleConsumerOther();
            t.row().cell(all[wi].name).cell(suite).cell(r).cell(o)
                .cell(r + o);
            redefs.push_back(r);
            others.push_back(o);
        }
        if (redefs.empty())
            continue;  // suite filtered out
        double ar = 0, ao = 0;
        for (std::size_t i = 0; i < redefs.size(); ++i) {
            ar += redefs[i];
            ao += others[i];
        }
        ar /= static_cast<double>(redefs.size());
        ao /= static_cast<double>(others.size());
        t.row()
            .cell("MEAN(" + suite + ")")
            .cell(suite)
            .cell(ar)
            .cell(ao)
            .cell(ar + ao);
    }
    t.print(std::cout, "Single-consumer fractions (percent of all "
                       "instructions)");
    std::printf("\nPaper: SPECfp mean > 50%%, SPECint mean > 30%% "
                "(our kernels stand in for SPEC; the fp > int ordering "
                "and magnitudes are the reproduced shape).\n");
    bench::finish();
    return 0;
}

/**
 * @file
 * Figure 2: distribution of the number of consumers per produced
 * register value (1, 2, 3, 4, 5, 6+).
 *
 * Paper shape to hold: most values are consumed exactly once,
 * especially in SPECfp.
 *
 * The per-workload usage analyses run in parallel on the thread pool.
 */

#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Figure 2: consumers-per-value distribution",
                  "single-consumer values dominate (most values are "
                  "consumed just once in SPEC)");

    const auto all = bench::selectedWorkloads();
    auto reports = bench::usageReports(all);

    stats::TextTable t({"workload", "1", "2", "3", "4", "5", "6+"});
    for (const auto &suite : workloads::suiteNames()) {
        std::vector<std::vector<double>> rows;
        for (std::size_t wi = 0; wi < all.size(); ++wi) {
            if (all[wi].suite != suite)
                continue;
            const auto &rep = reports[wi];
            std::vector<double> row;
            for (std::uint64_t k = 1; k <= 6; ++k)
                row.push_back(100.0 * rep.fracConsumers(k));
            t.row().cell(all[wi].name);
            for (double v : row)
                t.cell(v, 1);
            rows.push_back(row);
        }
        if (rows.empty())
            continue;  // suite filtered out
        t.row().cell("MEAN(" + suite + ")");
        for (int k = 0; k < 6; ++k) {
            double sum = 0;
            for (const auto &row : rows)
                sum += row[static_cast<std::size_t>(k)];
            t.cell(sum / static_cast<double>(rows.size()), 1);
        }
    }
    t.print(std::cout,
            "Percent of consumed values read exactly k times");
    std::printf("\nPaper: the k=1 bar is the tallest across all "
                "suites.\n");
    bench::finish();
    return 0;
}

/**
 * @file
 * Figure 3: percentage of destination-writing instructions that could
 * reuse a physical register when each register may be reused up to 1,
 * 2, 3 or an unlimited number of times, plus the exact chain-depth
 * decomposition.
 *
 * Paper reference points (SPECfp): 32.3% / 12.3% / 5.9% of
 * instructions at depths 1 / 2 / 3 and only 4.1% beyond; SPECint:
 * 22% / 5.2% / 2.3% / 1.2%.  Shape: reuse saturates quickly with the
 * chain cap — chains longer than four instructions are rare.
 *
 * The per-workload usage analyses run in parallel on the thread pool.
 */

#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Figure 3: reusable instructions vs reuse cap",
                  "SPECfp depth decomposition 32.3/12.3/5.9/4.1%; "
                  "SPECint 22/5.2/2.3/1.2%; caps beyond 3 add little");

    const auto all = bench::selectedWorkloads();
    auto reports = bench::usageReports(all);

    stats::TextTable t({"workload", "cap1%", "cap2%", "cap3%", "inf%",
                        "d1%", "d2%", "d3%", "d>3%"});
    for (const auto &suite : workloads::suiteNames()) {
        std::vector<std::array<double, 8>> rows;
        for (std::size_t wi = 0; wi < all.size(); ++wi) {
            if (all[wi].suite != suite)
                continue;
            const auto &rep = reports[wi];
            auto depth = rep.reuseDepthBreakdown();
            std::array<double, 8> row{};
            for (int c = 0; c < 4; ++c)
                row[static_cast<std::size_t>(c)] =
                    100.0 * rep.fracReusable(c);
            for (int d = 0; d < 4; ++d)
                row[static_cast<std::size_t>(4 + d)] =
                    100.0 * depth[static_cast<std::size_t>(d)];
            t.row().cell(all[wi].name);
            for (double v : row)
                t.cell(v, 1);
            rows.push_back(row);
        }
        if (rows.empty())
            continue;  // suite filtered out
        t.row().cell("MEAN(" + suite + ")");
        for (int k = 0; k < 8; ++k) {
            double sum = 0;
            for (const auto &row : rows)
                sum += row[static_cast<std::size_t>(k)];
            t.cell(sum / static_cast<double>(rows.size()), 1);
        }
    }
    t.print(std::cout, "Percent of dest-writing instructions that avoid "
                       "an allocation (oracle), by reuse cap and exact "
                       "chain depth");
    std::printf("\nShape checks: cap columns are monotone; the d>3 "
                "column is small (long chains are rare), matching the "
                "paper's motivation for a 2-bit counter.\n");
    bench::finish();
    return 0;
}

/**
 * @file
 * Figure 11: average committed IPC of the baseline and the proposed
 * scheme as a function of the number of physical registers (the
 * baseline's count; the proposed scheme uses the equal-area bank
 * configuration).
 *
 * Paper shape: both curves rise and saturate; the proposed curve
 * reaches the baseline's saturated IPC with roughly one size class
 * fewer registers (e.g. proposed@56 ~ baseline@64, a ~10.5-13% area
 * saving).
 *
 * Every (workload x size x scheme) run is fanned out in one parallel
 * sweep before any aggregation.
 */

#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Figure 11: IPC vs physical register count",
                  "proposed reaches baseline IPC with ~1 size class "
                  "fewer registers (10.5% register-file reduction)");

    // The whole deterministic block — table, crossover analysis and
    // shape-check note — comes from the shared renderer the golden
    // tests lock byte-for-byte (harness/figures.hh).
    const auto &m = bench::matrix();
    const auto all = bench::matrixWorkloads(m);
    auto grid = bench::outcomeGrid(all, m);
    std::cout << harness::renderFig11(m.rfSizes, grid);
    bench::finish();
    return 0;
}

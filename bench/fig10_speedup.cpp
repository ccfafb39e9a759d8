/**
 * @file
 * Figure 10 (a, b, c): speedup of the proposed renaming scheme over
 * the baseline at equal area, for register-file sizes 48..112, for the
 * SPECfp-like, SPECint-like, and Mediabench/cognitive suites.
 *
 * Paper reference (suite geomeans): SPECfp +12.2/+7.5/+3.75/+1.83/
 * +0.82% at 48/56/64/80/96+; SPECint +47/+6.76/+2.29/+0.67/+0.41%.
 * The reproduced *shape*: benefits are largest for small register
 * files and vanish as the file grows.
 *
 * All (workload x size x scheme) runs go through one parallel sweep;
 * the tables are bit-identical for every RRS_THREADS value.
 */

#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    // --quick is this bench's only own flag, so any flag given is it.
    const bool quick = !bench::init(argc, argv, {"--quick"}).empty();
    bench::banner("Figure 10: equal-area speedup vs register file size",
                  "SPECfp avg +12.2%..+0.8% (48..112); SPECint avg "
                  "+47%..+0.4%; gains shrink as the file grows");

    // --quick narrows the matrix to three sizes; everything else about
    // the grid (scheme columns, suite filter) still comes from it.
    harness::SweepMatrix m = bench::matrix();
    if (quick)
        m.rfSizes = {48, 64, 96};
    const auto &sizes = m.rfSizes;

    const auto all = bench::matrixWorkloads(m);
    auto grid = bench::outcomeGrid(all, m);
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto &w : all)
        rows.emplace_back(w.name, w.suite);

    // The whole deterministic block — per-suite tables and shape-check
    // note — comes from the shared renderer, so the campaign report's
    // fig10 section is byte-identical to this bench's output.
    std::cout << harness::renderFig10(rows, sizes, grid);
    bench::finish();
    return 0;
}

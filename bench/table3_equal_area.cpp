/**
 * @file
 * Table III: equal-area register-file configurations — for each
 * baseline size, the 4-bank organisation of the same total area.
 * Prints the paper's rows, this repository's tuned rows (bank shapes
 * from our Fig. 9 study), and the area-model verification of both.
 *
 * Each size's solver column is one closed-form equal-area solve
 * (harness::solveEqualAreaBanks).
 */

#include "area/area.hh"
#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Table III: equal-area register file configurations",
                  "48 -> 28+4+4+4, 56 -> 28+6+6+6, 64 -> 36+6+6+6, "
                  "72 -> 36+8+8+8, 80 -> 42+8+8+8, 96 -> 58+8+8+8, "
                  "112 -> 75+8+8+8");

    // The table and its shape-check note come from the shared renderer
    // the golden tests lock byte-for-byte (harness/figures.hh).
    area::AreaModel m;
    std::cout << harness::renderTable3(m, bench::rfSizes());
    bench::finish();
    return 0;
}

/**
 * @file
 * Ablation A: version-counter width.  The paper argues a 2-bit counter
 * (up to 3 reuses) is the sweet spot — 1 bit forfeits the depth-2/3
 * chains, more bits cost PRT/IQ area without measurable gain (chains
 * beyond 4 instructions are rare, Figure 3).
 *
 * All (workload x config) runs execute in one parallel sweep.
 */

#include "area/area.hh"
#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Ablation: version counter width (1/2/3 bits)",
                  "paper section IV-A: a 2-bit counter balances sharing "
                  "degree against PRT and issue-queue cost");

    // Declarative ablation: the first column is the reference
    // baseline, every other column one counter-width variant.
    const auto matrix = harness::parseSweepMatrix(R"({
  "schemes": ["baseline",
              {"scheme": "reuse", "label": "1-bit",
               "params": {"counter_bits": 1}},
              {"scheme": "reuse", "label": "2-bit",
               "params": {"counter_bits": 2}},
              {"scheme": "reuse", "label": "3-bit",
               "params": {"counter_bits": 3}}],
  "rf_sizes": [56]
})");
    const std::vector<std::uint8_t> widths = {1, 2, 3};
    auto speedups = bench::geomeanSpeedups(matrix);

    stats::TextTable t({"bits", "geomean speedup vs baseline@56",
                        "IQ overhead mm^2"});
    area::AreaModel m;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        t.row()
            .cell(static_cast<std::uint64_t>(widths[i]))
            .cell(speedups[i], 4)
            .cell(m.iqOverheadArea(40, 2u * widths[i]), 5);
    }
    t.print(std::cout, "Counter width ablation at the 56-register "
                       "equal-area point");
    std::printf("\nShape checks: 2 bits captures nearly all of the "
                "benefit; 3 bits adds little speedup while growing the "
                "wakeup tags.\n");
    bench::finish();
    return 0;
}

/**
 * @file
 * Table II: area of the register files and the proposed scheme's added
 * structures (PRT, issue queue version bits, register type predictor),
 * from the calibrated CACTI-lite model.
 *
 * This table is pure closed-form area arithmetic — no simulation runs
 * — so it is the one bench with nothing to fan out over the sweep
 * engine.
 */

#include "area/area.hh"
#include "common.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Table II: structure areas (mm^2)",
                  "int RF 0.2834, fp RF 0.4988, PRT 5.08e-4, IQ "
                  "overhead 1.48e-3, predictor 3.1e-3, total overhead "
                  "5.085e-3");

    area::AreaModel m;
    double int_rf = m.regFileArea(128, 64);
    double fp_rf = m.regFileArea(128, 128);
    double prt = m.prtArea(128, 2);
    double iq = m.iqOverheadArea(40, 4);
    double pred = m.predictorArea(512, 2);
    double total = prt + iq + pred;

    stats::TextTable t({"unit", "configuration", "model mm^2",
                        "paper mm^2", "ratio"});
    auto addRow = [&](const char *unit, const char *cfg, double model,
                      double paper) {
        t.row().cell(unit).cell(cfg).cell(model, 6).cell(paper, 6)
            .cell(model / paper, 2);
    };
    addRow("Integer RF (64b)", "128 regs", int_rf, 0.2834);
    addRow("FP RF (128b)", "128 regs", fp_rf, 0.4988);
    addRow("PRT", "overhead", prt, 5.08e-4);
    addRow("Issue queue", "overhead", iq, 1.48e-3);
    addRow("Register predictor", "overhead", pred, 3.1e-3);
    addRow("Total overhead", "", total, 5.085e-3);
    t.print(std::cout, "Calibrated area model vs paper Table II");

    std::printf("\nShape check: total overhead is %.2f%% of the two "
                "register files (paper: well under 1%%).\n",
                100.0 * total / (int_rf + fp_rf));

    // Every registered scheme priced from its own area descriptor at
    // the 64-register equal-area point: the baseline is its two plain
    // files; the proposed scheme adds shadow banks, PRT, IQ version
    // bits and the predictor but still undercuts the baseline.
    std::printf("\n");
    stats::TextTable st({"scheme", "int banks", "extra structures",
                         "total mm^2"});
    for (const auto &name : rename::registeredRenameSchemes()) {
        const rename::RenameScheme &scheme = rename::renameScheme(name);
        rename::SchemeParams sp;
        scheme.configureEqualArea(sp, 64);
        const auto d = scheme.areaDescriptor(sp);
        const double a = m.schemeArea(
            d.intBanks, d.fpBanks, 64, 128, d.prtCounterBits, 40,
            d.iqExtraTagBits, d.predictorEntries, d.predictorBits);
        std::string banks = std::to_string(d.intBanks[0]) + "+" +
                            std::to_string(d.intBanks[1]) + "+" +
                            std::to_string(d.intBanks[2]) + "+" +
                            std::to_string(d.intBanks[3]);
        std::string extras =
            d.prtCounterBits == 0
                ? std::string("none")
                : "PRT(" + std::to_string(d.prtCounterBits) +
                      "b) IQ(+" + std::to_string(d.iqExtraTagBits) +
                      "b) pred(" + std::to_string(d.predictorEntries) +
                      "x" + std::to_string(d.predictorBits) + "b)";
        st.row().cell(name).cell(banks).cell(extras).cell(a, 4);
    }
    st.print(std::cout, "Registered schemes priced via their area "
                        "descriptors (64-register equal-area point)");
    bench::finish();
    return 0;
}

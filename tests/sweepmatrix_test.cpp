// Sweep-matrix parsing: the declarative (schemes x rf_sizes) grids the
// benches iterate.  Every malformed document must die at parse time
// with a diagnostic that names the problem — never mid-sweep — and the
// non-fatal probe (tryParseSweepMatrix) must report the same message
// without touching its output on failure.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <utility>

#include "harness/campaign.hh"
#include "harness/sweepmatrix.hh"
#include "rename/scheme.hh"

namespace {

using namespace rrs;
using harness::SweepMatrix;

std::string
probeError(const std::string &text)
{
    SweepMatrix m;
    std::string error;
    EXPECT_FALSE(harness::tryParseSweepMatrix(text, m, error));
    return error;
}

// --- fatal path: a bad matrix kills the bench before any run starts --

TEST(SweepMatrixDeath, MalformedJson)
{
    EXPECT_EXIT(harness::parseSweepMatrix("{ not json"),
                ::testing::ExitedWithCode(1), "sweep matrix:");
}

TEST(SweepMatrixDeath, RootMustBeObject)
{
    EXPECT_EXIT(harness::parseSweepMatrix("[1, 2, 3]"),
                ::testing::ExitedWithCode(1),
                "document root must be an object");
}

TEST(SweepMatrixDeath, UnknownScheme)
{
    EXPECT_EXIT(
        harness::parseSweepMatrix(
            R"({"schemes": ["tomasulo67"], "rf_sizes": [64]})"),
        ::testing::ExitedWithCode(1),
        "unknown rename scheme 'tomasulo67'.*registered:.*baseline");
}

TEST(SweepMatrixDeath, UnknownParameterKey)
{
    EXPECT_EXIT(
        harness::parseSweepMatrix(
            R"({"schemes": [{"scheme": "reuse",
                             "params": {"warp_factor": 9}}],
                "rf_sizes": [64]})"),
        ::testing::ExitedWithCode(1),
        "scheme 'reuse' has no parameter 'warp_factor'.*keys:");
}

TEST(SweepMatrixDeath, EmptySchemes)
{
    EXPECT_EXIT(
        harness::parseSweepMatrix(R"({"schemes": [], "rf_sizes": [64]})"),
        ::testing::ExitedWithCode(1),
        "'schemes' must be a non-empty array");
}

TEST(SweepMatrixDeath, MissingSizes)
{
    EXPECT_EXIT(
        harness::parseSweepMatrix(R"({"schemes": ["baseline"]})"),
        ::testing::ExitedWithCode(1),
        "'rf_sizes' must be a non-empty array");
}

TEST(SweepMatrixDeath, DuplicateTopLevelKey)
{
    EXPECT_EXIT(
        harness::parseSweepMatrix(
            R"({"schemes": ["baseline"], "rf_sizes": [48],
                "rf_sizes": [64]})"),
        ::testing::ExitedWithCode(1),
        "duplicate key 'rf_sizes' in the matrix");
}

TEST(SweepMatrixDeath, MissingFile)
{
    EXPECT_EXIT(
        harness::loadSweepMatrixFile("/nonexistent/matrix.json"),
        ::testing::ExitedWithCode(1), "cannot open sweep matrix file");
}

// --- non-fatal probe: same diagnostics, untouched output -------------

TEST(SweepMatrixErrors, ProbeReportsWithoutDying)
{
    const char *counterBits = "parameter 'counter_bits' of scheme 'reuse' "
                              "must be a positive integer up to 4";
    EXPECT_NE(probeError("{ not json").find("sweep matrix:"),
              std::string::npos);
    EXPECT_NE(probeError(R"({"schemes": ["baseline"], "rf_sizes": []})")
                  .find("'rf_sizes' must be a non-empty array"),
              std::string::npos);
    EXPECT_NE(probeError(R"({"schemes": ["baseline"],
                             "rf_sizes": [0]})")
                  .find("each 'rf_sizes' entry must be a positive integer"),
              std::string::npos);
    EXPECT_NE(probeError(R"({"schemes": ["baseline"], "rf_sizes": [64],
                             "frobnicate": 1})")
                  .find("unknown key 'frobnicate'"),
              std::string::npos);
    EXPECT_NE(probeError(R"({"schemes": [{"scheme": "reuse",
                                          "params": {"counter_bits": 2,
                                                     "counter_bits": 3}}],
                             "rf_sizes": [64]})")
                  .find("duplicate key 'counter_bits' in the params of "
                        "scheme 'reuse'"),
              std::string::npos);
    EXPECT_NE(probeError(R"({"schemes": [{"label": "no name"}],
                             "rf_sizes": [64]})")
                  .find("need a string 'scheme' member"),
              std::string::npos);
    EXPECT_NE(probeError(R"({"schemes": ["baseline"], "rf_sizes": [64],
                             "suite": "specitn"})")
                  .find("sweep matrix: unknown suite 'specitn'"),
              std::string::npos);
    EXPECT_NE(probeError(R"({"schemes": [{"scheme": "reuse",
                                          "params": {"counter_bits":
                                                     "two"}}],
                             "rf_sizes": [64]})")
                  .find(counterBits),
              std::string::npos);

    // Numbers that do not fit their field fail by name instead of
    // being cast: the field's type bounds each one, and a scheme
    // parameter also takes only what its renamer accepts.
    const std::pair<const char *, const char *> unfit[] = {
        {R"({"schemes": ["baseline"], "rf_sizes": [4294967344]})",
         "each 'rf_sizes' entry must be a positive integer up to "
         "4294967295"},
        {R"({"schemes": ["baseline"], "rf_sizes": [64], "cap": 1e30})",
         "'cap' must be a positive integer up to 18446744073709551615"},
        {R"({"schemes": ["baseline"], "rf_sizes": [64], "cap": 2.5})",
         "'cap' must be a positive integer"},
        {R"({"schemes": [{"scheme": "reuse",
                          "params": {"counter_bits": 2.5}}],
             "rf_sizes": [64]})",
         counterBits},
        {R"({"schemes": [{"scheme": "reuse",
                          "params": {"counter_bits": 258}}],
             "rf_sizes": [64]})",
         counterBits},
        {R"({"schemes": [{"scheme": "reuse",
                          "params": {"counter_bits": 5}}],
             "rf_sizes": [64]})",
         counterBits},
        {R"({"schemes": [{"scheme": "reuse",
                          "params": {"counter_bits": true}}],
             "rf_sizes": [64]})",
         counterBits},
        {R"({"schemes": [{"scheme": "reuse",
                          "params": {"predictor_entries": 0}}],
             "rf_sizes": [64]})",
         "parameter 'predictor_entries' of scheme 'reuse' must be a "
         "positive integer up to 4294967295"},
        {R"({"schemes": [{"scheme": "reuse",
                          "params": {"bank0": 4294967336}}],
             "rf_sizes": [64]})",
         "parameter 'bank0' of scheme 'reuse' must be a non-negative "
         "integer up to 4294967295"},
        {R"({"schemes": [{"scheme": "reuse",
                          "params": {"reuse_enabled": 2}}],
             "rf_sizes": [64]})",
         "parameter 'reuse_enabled' of scheme 'reuse' must be a "
         "non-negative integer up to 1"},
        {R"({"schemes": [{"scheme": "baseline",
                          "params": {"regs": 16}}],
             "rf_sizes": [64]})",
         "parameter 'regs' of scheme 'baseline' must be an integer in "
         "33..4294967295"},
    };
    for (const auto &[doc, diagnostic] : unfit)
        EXPECT_NE(probeError(doc).find(diagnostic), std::string::npos)
            << doc;
}

TEST(SweepMatrixErrors, RegisterFileFloorIsCheckedAtParseTime)
{
    // A column that leaves a register class no register beyond the 32
    // architected ones cannot rename: at 32 the run used to hang, below
    // it the renamer's constructor aborted mid-sweep.  The parser now
    // builds every column at every size and refuses such a file.
    const std::pair<const char *, const char *> tooSmall[] = {
        {R"({"schemes": ["baseline", "reuse"], "rf_sizes": [64, 32]})",
         "scheme 'baseline' at size 32 has 32 int registers; each class "
         "needs at least 33"},
        {R"({"schemes": ["baseline"], "rf_sizes": [16]})",
         "scheme 'baseline' at size 16 has 16 int registers"},
        {R"({"schemes": [{"scheme": "reuse", "label": "bank0 only",
                          "params": {"bank0": 20, "bank1": 0,
                                     "bank2": 0, "bank3": 0}}],
             "rf_sizes": [64]})",
         "scheme 'reuse' (column 'bank0 only') at size 64 has 20 int "
         "registers"},
        {R"({"schemes": [{"scheme": "baseline",
                          "params": {"int_regs": 64}}],
             "rf_sizes": [32]})",
         "scheme 'baseline' at size 32 has 32 fp registers"},
    };
    for (const auto &[doc, diagnostic] : tooSmall)
        EXPECT_NE(probeError(doc).find(diagnostic), std::string::npos)
            << doc << "\n" << probeError(doc);

    // One register to rename into is enough to parse.
    SweepMatrix m;
    std::string error;
    EXPECT_TRUE(harness::tryParseSweepMatrix(
        R"({"schemes": ["baseline"], "rf_sizes": [33]})", m, error))
        << error;
    EXPECT_TRUE(harness::tryParseSweepMatrix(
        R"({"schemes": [{"scheme": "reuse",
                         "params": {"bank0": 33, "bank1": 0,
                                    "bank2": 0, "bank3": 0}}],
            "rf_sizes": [48]})",
        m, error))
        << error;

    // A campaign manifest embeds matrices, so it is refused the same way.
    harness::CampaignManifest manifest;
    EXPECT_FALSE(harness::tryParseCampaignManifest(
        R"({"name": "floor", "figures": [
              {"figure": "f", "kind": "fig11",
               "matrix": {"schemes": ["baseline", "reuse"],
                          "rf_sizes": [32]}}]})",
        manifest, error));
    EXPECT_NE(error.find("figure 'f': sweep matrix: scheme 'baseline' at "
                         "size 32 has 32 int registers"),
              std::string::npos)
        << error;
}

TEST(SweepMatrixErrors, OutputUntouchedOnFailure)
{
    SweepMatrix m;
    m.cap = 777;
    m.suite = "specint";
    std::string error;
    EXPECT_FALSE(harness::tryParseSweepMatrix("{", m, error));
    EXPECT_EQ(m.cap, 777u);
    EXPECT_EQ(m.suite, "specint");
    EXPECT_TRUE(m.schemes.empty());
}

// --- happy path ------------------------------------------------------

TEST(SweepMatrixParse, FullDocument)
{
    const auto m = harness::parseSweepMatrix(R"({
        "schemes": ["baseline",
                    {"scheme": "reuse", "label": "2-bit",
                     "params": {"counter_bits": 2,
                                "reuse_non_redef": false}}],
        "rf_sizes": [48, 64],
        "cap": 5000,
        "sample_sharing": true,
        "suite": "specfp",
        "audit": false
    })");

    ASSERT_EQ(m.schemes.size(), 2u);
    EXPECT_EQ(m.schemes[0].scheme, "baseline");
    EXPECT_EQ(m.schemes[0].label, "baseline");  // defaults to the key
    EXPECT_TRUE(m.schemes[0].params.empty());
    EXPECT_EQ(m.schemes[1].scheme, "reuse");
    EXPECT_EQ(m.schemes[1].label, "2-bit");
    ASSERT_EQ(m.schemes[1].params.size(), 2u);
    EXPECT_EQ(m.schemes[1].params[0].first, "counter_bits");
    EXPECT_EQ(m.schemes[1].params[0].second, 2.0);
    EXPECT_EQ(m.schemes[1].params[1].first, "reuse_non_redef");
    EXPECT_EQ(m.schemes[1].params[1].second, 0.0);  // bool -> 0/1
    EXPECT_EQ(m.rfSizes, (std::vector<std::uint32_t>{48, 64}));
    EXPECT_EQ(m.cap, 5000u);
    EXPECT_TRUE(m.sampleSharing);
    EXPECT_EQ(m.suite, "specfp");
    EXPECT_FALSE(m.audit);
}

TEST(SweepMatrixParse, MatrixConfigAppliesOverrides)
{
    const auto m = harness::parseSweepMatrix(R"({
        "schemes": [{"scheme": "reuse",
                     "params": {"counter_bits": 3,
                                "predictor_entries": 128}}],
        "rf_sizes": [64],
        "cap": 4000,
        "audit": false
    })");
    auto cfg = harness::matrixConfig(m.schemes[0], 64, m, 99);
    EXPECT_EQ(cfg.scheme, "reuse");
    EXPECT_EQ(cfg.rename.reuse.counterBits, 3);
    EXPECT_EQ(cfg.rename.reuse.predictor.entries, 128u);
    EXPECT_EQ(cfg.maxInsts, 4000u);       // matrix cap wins
    EXPECT_TRUE(cfg.obs.auditDisabled);   // audit: false forces it off

    // Without a matrix cap the caller's default applies.
    auto m2 = m;
    m2.cap = 0;
    EXPECT_EQ(harness::matrixConfig(m2.schemes[0], 64, m2, 99).maxInsts,
              99u);
}

TEST(SweepMatrixParse, ExpansionOrderIsWorkloadSizeScheme)
{
    const auto m = harness::parseSweepMatrix(R"({
        "schemes": ["baseline", "reuse"],
        "rf_sizes": [56, 96],
        "cap": 1000
    })");
    // Static: SweepItem keeps pointers into this list.
    static const std::vector<workloads::Workload> ws = {
        workloads::workload("int_crc"), workloads::workload("fp_fir")};
    auto items = harness::expandSweepMatrix(m, ws, 0);
    ASSERT_EQ(items.size(), 8u);   // 2 workloads x 2 sizes x 2 schemes

    std::size_t i = 0;
    for (const auto &w : ws) {
        for (std::uint32_t size : {56u, 96u}) {
            for (const char *scheme : {"baseline", "reuse"}) {
                SCOPED_TRACE("item " + std::to_string(i));
                EXPECT_EQ(items[i].workload->name, w.name);
                EXPECT_EQ(items[i].config.scheme, scheme);
                EXPECT_EQ(items[i].config.maxInsts, 1000u);
                (void)size;
                ++i;
            }
        }
    }
}

TEST(SweepMatrixParse, SamplingBlock)
{
    const auto m = harness::parseSweepMatrix(R"({
        "schemes": ["baseline"],
        "rf_sizes": [64],
        "sampling": {"warm": 1024, "detailed": 512, "period": 4096}
    })");
    EXPECT_TRUE(m.sampling.enabled());
    EXPECT_EQ(m.sampling.warm, 1024u);
    EXPECT_EQ(m.sampling.detailed, 512u);
    EXPECT_EQ(m.sampling.period, 4096u);

    // The block flows into every expanded RunConfig; its absence means
    // exact simulation.
    auto cfg = harness::matrixConfig(m.schemes[0], 64, m, 1000);
    EXPECT_TRUE(cfg.sampling.enabled());
    EXPECT_EQ(cfg.sampling.period, 4096u);
    const auto exact = harness::parseSweepMatrix(
        R"({"schemes": ["baseline"], "rf_sizes": [64]})");
    EXPECT_FALSE(exact.sampling.enabled());
    EXPECT_FALSE(
        harness::matrixConfig(exact.schemes[0], 64, exact, 1000)
            .sampling.enabled());
}

TEST(SweepMatrixErrors, SamplingBlockDiagnostics)
{
    const char *shell = R"({"schemes": ["baseline"], "rf_sizes": [64],
                            "sampling": %s})";
    auto probe = [&shell](const char *block) {
        char doc[512];
        std::snprintf(doc, sizeof(doc), shell, block);
        SweepMatrix m;
        std::string error;
        EXPECT_FALSE(harness::tryParseSweepMatrix(doc, m, error));
        return error;
    };
    EXPECT_NE(probe("7").find("must be an object"), std::string::npos);
    EXPECT_NE(probe(R"({"detailed": 512, "period": 4096,
                        "cadence": 1})")
                  .find("unknown sampling key 'cadence'"),
              std::string::npos);
    EXPECT_NE(probe(R"({"detailed": 0, "period": 4096})")
                  .find("positive integer"),
              std::string::npos);
    EXPECT_NE(probe(R"({"warm": -1, "detailed": 512, "period": 4096})")
                  .find("non-negative integer"),
              std::string::npos);
    EXPECT_NE(probe(R"({"detailed": 512})")
                  .find("positive 'detailed' and 'period'"),
              std::string::npos);
    EXPECT_NE(probe(R"({"warm": 4000, "detailed": 512,
                        "period": 4096})")
                  .find("'period' must cover warm + detailed"),
              std::string::npos);
    EXPECT_NE(probe(R"({"detailed": 512, "period": 4096,
                        "period": 8192})")
                  .find("duplicate key 'period' in the sampling block"),
              std::string::npos);
    // Lengths stop at INT64_MAX, so warm + detailed cannot wrap past
    // the period check.
    EXPECT_NE(probe(R"({"warm": 18446744073709549568, "detailed": 4096,
                        "period": 8192})")
                  .find("sampling 'warm' must be a non-negative integer "
                        "up to 9223372036854775807"),
              std::string::npos);
    EXPECT_NE(probe(R"({"detailed": 1e30, "period": 4096})")
                  .find("sampling 'detailed' must be a positive integer"),
              std::string::npos);
    EXPECT_NE(probe(R"({"detailed": 512.5, "period": 4096})")
                  .find("sampling 'detailed' must be a positive integer"),
              std::string::npos);
}

TEST(SweepMatrixParse, LoadFromFile)
{
    const std::string path =
        ::testing::TempDir() + "sweepmatrix_test_matrix.json";
    {
        std::ofstream out(path);
        out << R"({"schemes": ["reuse"], "rf_sizes": [72]})";
    }
    const auto m = harness::loadSweepMatrixFile(path);
    ASSERT_EQ(m.schemes.size(), 1u);
    EXPECT_EQ(m.schemes[0].scheme, "reuse");
    EXPECT_EQ(m.rfSizes, (std::vector<std::uint32_t>{72}));
    std::remove(path.c_str());
}

} // namespace

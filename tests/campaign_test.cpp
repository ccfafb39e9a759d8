// Campaign manifests and the resumable ledger DAG
// (harness/campaign.hh): parse-time diagnostics, node sharing between
// figures, the interrupt/resume contract (a ledger built in pieces is
// byte-identical to one built in a single run, at every thread count),
// the 100%-hit re-run, the report's figure blocks matching the direct
// renderer output byte for byte, the report's host-cost gate, and its
// refusal of a sidecar it cannot read as written.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/campaign.hh"
#include "harness/figures.hh"
#include "harness/report.hh"

namespace {

using namespace rrs;
using harness::CampaignManifest;
using harness::CampaignOptions;
using harness::CampaignPlan;
using harness::Ledger;

// Small but real: the full media suite over two sizes, 500 insts per
// run — 16 nodes per sweep figure, well under a second end to end.
const char *manifestJson = R"({
  "name": "test-campaign",
  "cap": 500,
  "figures": [
    {"figure": "fig11", "kind": "fig11",
     "matrix": {"suite": "media", "schemes": ["baseline", "reuse"],
                "rf_sizes": [48, 64]}},
    {"figure": "fig10", "kind": "fig10",
     "matrix": {"suite": "media", "schemes": ["baseline", "reuse"],
                "rf_sizes": [48, 64]}},
    {"figure": "table3", "kind": "table3", "sizes": [48, 64, 96]}
  ]
})";

CampaignManifest
parseManifest(const std::string &text = manifestJson)
{
    CampaignManifest m;
    std::string error;
    EXPECT_TRUE(harness::tryParseCampaignManifest(text, m, error))
        << error;
    return m;
}

std::string
parseError(const std::string &text)
{
    CampaignManifest m;
    std::string error;
    EXPECT_FALSE(harness::tryParseCampaignManifest(text, m, error));
    return error;
}

std::string
tempDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** Every node file of a ledger as name -> bytes. */
std::map<std::string, std::string>
nodeBytes(const Ledger &ledger)
{
    std::map<std::string, std::string> out;
    for (const auto &hex : ledger.listNodes()) {
        std::ifstream in(ledger.nodePath(hex), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        out[hex] = text.str();
    }
    return out;
}

TEST(CampaignManifestTest, ParsesTheFullGrammar)
{
    const CampaignManifest m = parseManifest();
    EXPECT_EQ(m.name, "test-campaign");
    EXPECT_EQ(m.cap, 500u);
    ASSERT_EQ(m.figures.size(), 3u);
    EXPECT_EQ(m.figures[0].kind,
              harness::CampaignFigure::Kind::Fig11);
    EXPECT_EQ(m.figures[1].kind,
              harness::CampaignFigure::Kind::Fig10);
    EXPECT_EQ(m.figures[2].kind,
              harness::CampaignFigure::Kind::Table3);
    EXPECT_EQ(m.figures[0].matrix.suite, "media");
    EXPECT_EQ(m.figures[2].sizes.size(), 3u);
}

TEST(CampaignManifestTest, DiagnosticsAreRaisedAtParseTime)
{
    EXPECT_NE(parseError("[]").find("root must be an object"),
              std::string::npos);
    EXPECT_NE(parseError("{\"figures\": []}").find("'name'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"name\": \"x\", \"figures\": []}")
                  .find("non-empty array"),
              std::string::npos);
    EXPECT_NE(parseError("{\"name\": \"x\", \"frobs\": 1}")
                  .find("unknown key 'frobs'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"name\": \"x\", \"cap\": -5, "
                         "\"figures\": []}")
                  .find("'cap'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"name\": \"x\", \"cap\": 1e30, "
                         "\"figures\": []}")
                  .find("'cap' must be a positive integer up to "
                        "18446744073709551615"),
              std::string::npos);
    EXPECT_NE(parseError("{\"name\": \"x\", \"figures\": ["
                         "{\"figure\": \"t\", \"kind\": \"table3\", "
                         "\"sizes\": [4294967344]}]}")
                  .find("figure 't': each 'sizes' entry must be a "
                        "positive integer up to 4294967295"),
              std::string::npos);
    const std::string badParam =
        parseError("{\"name\": \"x\", \"figures\": ["
                   "{\"figure\": \"f\", \"kind\": \"fig11\", "
                   "\"matrix\": {\"schemes\": [\"baseline\", "
                   "{\"scheme\": \"reuse\", \"params\": "
                   "{\"counter_bits\": 5}}], \"rf_sizes\": [48]}}]}");
    EXPECT_NE(badParam.find("figure 'f'"), std::string::npos);
    EXPECT_NE(badParam.find("parameter 'counter_bits' of scheme 'reuse' "
                            "must be a positive integer up to 4"),
              std::string::npos);

    // Figure-level diagnostics name the offending figure.
    const std::string badKind =
        parseError("{\"name\": \"x\", \"figures\": ["
                   "{\"figure\": \"f\", \"kind\": \"fig99\"}]}");
    EXPECT_NE(badKind.find("figure 'f'"), std::string::npos);
    EXPECT_NE(badKind.find("fig10/fig11/table3"), std::string::npos);

    // The matrix itself parses fine; the kind/shape mismatch is what
    // the diagnostic must name.
    EXPECT_NE(parseError("{\"name\": \"x\", \"figures\": ["
                         "{\"figure\": \"t\", \"kind\": \"table3\", "
                         "\"matrix\": {\"schemes\": [\"baseline\", "
                         "\"reuse\"], \"rf_sizes\": [64]}}]}")
                  .find("take 'sizes', not a 'matrix'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"name\": \"x\", \"figures\": ["
                         "{\"figure\": \"f\", \"kind\": \"fig11\", "
                         "\"sizes\": [48]}]}")
                  .find("take a 'matrix', not 'sizes'"),
              std::string::npos);
    EXPECT_NE(
        parseError("{\"name\": \"x\", \"figures\": ["
                   "{\"figure\": \"f\", \"kind\": \"fig11\", "
                   "\"matrix\": {\"schemes\": [\"baseline\"], "
                   "\"rf_sizes\": [48]}}]}")
            .find("exactly two scheme columns"),
        std::string::npos);
    EXPECT_NE(
        parseError("{\"name\": \"x\", \"figures\": ["
                   "{\"figure\": \"f\", \"kind\": \"fig11\", "
                   "\"matrix\": {\"suite\": \"nope\", \"schemes\": "
                   "[\"baseline\", \"reuse\"], \"rf_sizes\": [48]}}]}")
            .find("unknown suite 'nope'"),
        std::string::npos);

    // A broken embedded matrix surfaces the sweep-matrix diagnostic
    // under the figure's name.
    const std::string badMatrix =
        parseError("{\"name\": \"x\", \"figures\": ["
                   "{\"figure\": \"f\", \"kind\": \"fig11\", "
                   "\"matrix\": {\"schemes\": [\"baseline\", "
                   "\"nosuch\"], \"rf_sizes\": [48]}}]}");
    EXPECT_NE(badMatrix.find("figure 'f'"), std::string::npos);
    EXPECT_NE(badMatrix.find("unknown rename scheme"),
              std::string::npos);

    // Duplicate figure names would make the sidecar ambiguous.
    EXPECT_NE(
        parseError("{\"name\": \"x\", \"figures\": ["
                   "{\"figure\": \"t\", \"kind\": \"table3\", "
                   "\"sizes\": [48]},"
                   "{\"figure\": \"t\", \"kind\": \"table3\", "
                   "\"sizes\": [64]}]}")
            .find("duplicate figure name 't'"),
        std::string::npos);
}

TEST(CampaignPlanTest, FiguresWithTheSameMatrixShareEveryNode)
{
    const CampaignPlan plan =
        harness::planCampaign(parseManifest(), CampaignOptions{});
    ASSERT_EQ(plan.figures.size(), 3u);

    // media (4 workloads) x 2 sizes x 2 schemes = 16 cells per sweep
    // figure; fig10 reuses fig11's digests, table3 is analytic.
    EXPECT_EQ(plan.figures[0].digests.size(), 16u);
    EXPECT_EQ(plan.figures[1].digests, plan.figures[0].digests);
    EXPECT_TRUE(plan.figures[2].digests.empty());
    EXPECT_EQ(plan.order.size(), 16u);
    EXPECT_EQ(plan.nodes.size(), 16u);
}

TEST(CampaignPlanTest, CapOverrideProducesDisjointDigests)
{
    const CampaignManifest m = parseManifest();
    const CampaignPlan full =
        harness::planCampaign(m, CampaignOptions{});
    CampaignOptions capped;
    capped.capOverride = 100;
    const CampaignPlan smoke = harness::planCampaign(m, capped);
    for (const auto &hex : smoke.order)
        EXPECT_EQ(full.nodes.find(hex), full.nodes.end()) << hex;
}

TEST(CampaignRunTest, InterruptedRunsResumeToTheSameBytes)
{
    const CampaignManifest m = parseManifest();
    for (unsigned threads : {1u, 2u, 4u}) {
        CampaignOptions opts;
        opts.threads = threads;

        // The reference: one uninterrupted run.
        const Ledger oneShot(
            tempDir("campaign_oneshot_t" + std::to_string(threads)));
        std::ostringstream sink;
        harness::CampaignResult r =
            harness::runCampaign(m, oneShot, opts, sink);
        EXPECT_EQ(r.totalNodes, 16u);
        EXPECT_EQ(r.simulated, 16u);
        EXPECT_TRUE(r.complete());

        // The same campaign killed after 5 nodes, then resumed.
        const Ledger pieces(
            tempDir("campaign_pieces_t" + std::to_string(threads)));
        CampaignOptions interrupted = opts;
        interrupted.maxNewNodes = 5;
        r = harness::runCampaign(m, pieces, interrupted, sink);
        EXPECT_EQ(r.simulated, 5u);
        EXPECT_EQ(r.remaining, 11u);
        EXPECT_FALSE(r.complete());

        r = harness::runCampaign(m, pieces, opts, sink);
        EXPECT_EQ(r.hits, 5u);       // untouched nodes digest-skipped
        EXPECT_EQ(r.simulated, 11u);
        EXPECT_TRUE(r.complete());

        // nodes/ is byte-identical: same files, same bytes.
        EXPECT_EQ(nodeBytes(pieces), nodeBytes(oneShot))
            << "threads=" << threads;

        // A clean re-run simulates nothing.
        r = harness::runCampaign(m, pieces, opts, sink);
        EXPECT_EQ(r.hits, 16u);
        EXPECT_EQ(r.simulated, 0u);
    }
}

TEST(CampaignReportTest, FigureBlocksMatchTheDirectRenderers)
{
    const CampaignManifest m = parseManifest();
    const Ledger ledger(tempDir("campaign_report"));
    std::ostringstream sink;
    harness::runCampaign(m, ledger, CampaignOptions{}, sink);

    std::string report, error;
    ASSERT_EQ(harness::renderCampaignReport(
                  ledger, harness::ReportOptions{}, report, error),
              0)
        << error;

    // The same cells simulated directly, through the bench path.
    harness::SweepRunner runner(1);
    const auto ws = workloads::suiteWorkloads("media");
    const auto grid = harness::outcomePairGrid(
        runner, ws, m.figures[0].matrix, m.cap);
    const std::string direct =
        harness::renderFig11(m.figures[0].matrix.rfSizes, grid);

    const std::string marker = "## fig11 (fig11)\n\n```\n";
    const std::size_t at = report.find(marker);
    ASSERT_NE(at, std::string::npos) << report;
    const std::size_t start = at + marker.size();
    const std::size_t end = report.find("```", start);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(report.substr(start, end - start), direct);

    // And fig10's block, against its renderer.
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto &w : ws)
        rows.emplace_back(w.name, w.suite);
    const std::string direct10 =
        harness::renderFig10(rows, m.figures[1].matrix.rfSizes, grid);
    const std::string marker10 = "## fig10 (fig10)\n\n```\n";
    const std::size_t at10 = report.find(marker10);
    ASSERT_NE(at10, std::string::npos);
    const std::size_t start10 = at10 + marker10.size();
    const std::size_t end10 = report.find("```", start10);
    EXPECT_EQ(report.substr(start10, end10 - start10), direct10);

    // The report needs a sidecar; a bare nodes/ dir is an error that
    // says what to do about it.
    const Ledger bare(tempDir("campaign_report_bare"));
    std::string out;
    EXPECT_EQ(harness::renderCampaignReport(
                  bare, harness::ReportOptions{}, out, error),
              2);
    EXPECT_NE(error.find("rrs-campaign"), std::string::npos);

    // A baseline path with no nodes/ is a typo, not an empty ledger.
    harness::ReportOptions typo;
    typo.baselineDir = bare.directory();
    EXPECT_EQ(harness::renderCampaignReport(ledger, typo, out, error), 2);
    EXPECT_NE(error.find(bare.directory()), std::string::npos) << error;
}

// fig10 renders the (name, suite) rows its sidecar stores, so a stored
// figure renders without the workload registry; a row outside the four
// suites would drop out of every per-suite table, so it is refused.
TEST(CampaignReportTest, Fig10RendersTheSidecarsRows)
{
    const CampaignManifest m = parseManifest();
    const Ledger ledger(tempDir("campaign_fig10_rows"));
    std::ostringstream sink;
    harness::runCampaign(m, ledger, CampaignOptions{}, sink);
    const std::string path = ledger.directory() + "/campaign.json";
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    in.close();
    const std::string sidecar = text.str();
    // The last figure listing workloads is fig10.
    const std::string row =
        "{\"name\": \"media_adpcm\", \"suite\": \"media\"}";
    const std::size_t at = sidecar.rfind(row);
    ASSERT_NE(at, std::string::npos) << sidecar;
    auto reportWith = [&](const std::string &stored, std::string &out,
                          std::string &error) {
        std::string doc = sidecar;
        std::ofstream(path) << doc.replace(at, row.size(), stored);
        return harness::renderCampaignReport(
            ledger, harness::ReportOptions{}, out, error);
    };

    std::string out, error;
    EXPECT_EQ(reportWith("{\"name\": \"media_adpcmX\", \"suite\": \"media\"}",
                         out, error),
              0)
        << error;
    EXPECT_NE(out.find("media_adpcmX"), std::string::npos) << out;

    EXPECT_EQ(reportWith("{\"name\": \"media_adpcm\", \"suite\": \"mediaX\"}",
                         out, error),
              2);
    EXPECT_NE(error.find("figure 'fig10'"), std::string::npos) << error;
    EXPECT_NE(error.find("unknown suite 'mediaX'"), std::string::npos)
        << error;
}

// The host-cost gate of `rrs-report --baseline`, on one shared node
// and hand-written sidecars, so each verdict is exact.
struct Sidecar
{
    double wallSeconds = 2.0;
    int simulated = 1;          // of nodes_total = 1
    int traceHits = 3;
    unsigned threads = 1;
};

Ledger
gateLedger(const std::string &name, const Sidecar &car,
           std::uint64_t cycles = 1000)
{
    const Ledger ledger(tempDir(name));
    harness::LedgerEntry e;
    e.spec.workload = "int_sort";
    e.spec.scheme = "baseline";
    e.spec.regs = 64;
    e.outcome.sim.committedInsts = 800;
    e.outcome.sim.cycles = cycles;
    std::string error;
    EXPECT_TRUE(ledger.store(
        harness::digestHex(harness::nodeDigest(e.spec)), e, error))
        << error;
    std::ofstream(ledger.directory() + "/campaign.json")
        << "{\"campaign_schema\": " << harness::campaignSchemaVersion
        << ", \"name\": \"gate\", \"git_sha\": \"x\", \"threads\": "
        << car.threads << ", \"wall_seconds\": " << car.wallSeconds
        << ", \"nodes_total\": 1, \"nodes_cached\": "
        << 1 - car.simulated << ", \"nodes_simulated\": " << car.simulated
        << ", \"nodes_deferred\": 0, \"trace_cache\": {\"hits\": "
        << car.traceHits << ", \"misses\": 1, \"captured_insts\": 900, "
        << "\"replayed_insts\": 2400}, \"phases\": [], \"figures\": []}\n";
    return ledger;
}

int
gate(const Ledger &base, const Ledger &cur, double thresholdPct = 50,
     std::string *report = nullptr)
{
    harness::ReportOptions opts;
    opts.baselineDir = base.directory();
    opts.throughputThresholdPct = thresholdPct;
    std::string out, error;
    const int status = harness::renderCampaignReport(cur, opts, out, error);
    if (report)
        *report = out;
    return status;
}

TEST(ReportHostCostTest, OnlyASlowdownPastTheThresholdFails)
{
    const Ledger base = gateLedger("gate_wall_base", {2.0, 1, 3});
    const Ledger slow = gateLedger("gate_wall_slow", {4.0, 1, 3});
    std::string report;
    EXPECT_EQ(gate(base, slow, 50, &report), 1);
    EXPECT_NE(report.find("+100.0%"), std::string::npos) << report;
    EXPECT_NE(report.find("REGRESSION"), std::string::npos);
    EXPECT_EQ(gate(base, slow, 150), 0);   // inside the budget
    EXPECT_EQ(gate(base, slow, -1), 0);    // no threshold: reported only

    const Ledger fast = gateLedger("gate_wall_fast", {1.0, 1, 3});
    EXPECT_EQ(gate(base, fast), 0);
    EXPECT_EQ(gate(base, fast, 0), 0);
}

TEST(ReportHostCostTest, TraceCacheTrafficDifferenceFails)
{
    const Ledger base = gateLedger("gate_traffic_base", {2.0, 1, 3});
    const Ledger cur = gateLedger("gate_traffic_cur", {2.0, 1, 4});
    std::string report;
    EXPECT_EQ(gate(base, cur, 50, &report), 1);
    EXPECT_NE(report.find("trace-cache traffic: DIFFERS"),
              std::string::npos)
        << report;
}

TEST(ReportHostCostTest, IncomparableRunsCannotPass)
{
    const Ledger base = gateLedger("gate_cmp_base", {});
    const Ledger cur = gateLedger("gate_cmp_cur", {});
    EXPECT_EQ(gate(base, cur), 0);

    // A partly cached run would pass any threshold.
    const Ledger cached = gateLedger("gate_cmp_cached", {0.01, 0, 3});
    std::string report;
    EXPECT_EQ(gate(base, cached, 50, &report), 2);
    EXPECT_NE(report.find("did not simulate every node"),
              std::string::npos)
        << report;

    // Different node sets.
    const Ledger other = gateLedger("gate_cmp_other", {});
    harness::LedgerEntry extra;
    extra.spec.workload = "fp_fir";
    extra.outcome.sim.committedInsts = 800;
    extra.outcome.sim.cycles = 1000;
    std::string error;
    ASSERT_TRUE(other.store(
        harness::digestHex(harness::nodeDigest(extra.spec)), extra,
        error));
    EXPECT_EQ(gate(cur, other, 50, &report), 2);
    EXPECT_NE(report.find("node sets differ"), std::string::npos)
        << report;

    // A baseline sidecar of another layout version, or none at all.
    std::ofstream(base.directory() + "/campaign.json")
        << "{\"campaign_schema\": " << harness::campaignSchemaVersion + 1
        << ", \"wall_seconds\": 2, \"nodes_total\": 1, "
        << "\"nodes_simulated\": 1}\n";
    EXPECT_EQ(gate(base, cur), 2);
    std::filesystem::remove(base.directory() + "/campaign.json");
    EXPECT_EQ(gate(base, cur), 2);
    EXPECT_EQ(gate(base, cur, -1), 0);    // nothing to gate without one
}

TEST(ReportHostCostTest, DifferentThreadCountsCannotGate)
{
    // Four lanes finish a one-lane snapshot's work in about a quarter
    // of its wall clock, so a 50% gate would let a per-run slowdown of
    // several times pass.
    const Ledger base = gateLedger("gate_lanes_base", {2.0, 1, 3, 1});
    const Ledger wide = gateLedger("gate_lanes_wide", {0.5, 1, 3, 4});
    std::string report;
    EXPECT_EQ(gate(base, wide, 50, &report), 2);
    EXPECT_NE(report.find("Cannot gate host cost: the thread counts "
                          "differ (baseline 1, current 4)."),
              std::string::npos)
        << report;
    EXPECT_EQ(gate(wide, base, 50, &report), 2);
    EXPECT_NE(report.find("(baseline 4, current 1)"), std::string::npos)
        << report;
    EXPECT_EQ(gate(base, wide, -1), 0);   // no threshold: reported only
}

TEST(ReportHostCostTest, NodeDriftFailsWithoutAThreshold)
{
    const Ledger base = gateLedger("gate_drift_base", {});
    const Ledger cur = gateLedger("gate_drift_cur", {}, 1001);
    std::string report;
    EXPECT_EQ(gate(base, cur, -1, &report), 1);
    EXPECT_NE(report.find("DRIFT"), std::string::npos) << report;
}

TEST(ReportHostCostTest, UnreadableNodeIsDrift)
{
    // A fractional count used to read back truncated: "No drift".
    const Ledger base = gateLedger("gate_unreadable_base", {});
    const Ledger cur = gateLedger("gate_unreadable_cur", {});
    harness::LedgerEntry e;
    e.spec.workload = "int_sort";
    e.spec.scheme = "baseline";
    e.spec.regs = 64;
    const std::string path = cur.nodePath(
        harness::digestHex(harness::nodeDigest(e.spec)));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    in.close();
    std::string node = text.str();
    const std::size_t at = node.find("\"cycles\": 1000");
    ASSERT_NE(at, std::string::npos) << node;
    node.insert(at + std::string("\"cycles\": 1000").size(), ".5");
    std::ofstream(path) << node;

    std::string report;
    EXPECT_EQ(gate(base, cur, -1, &report), 1);
    EXPECT_NE(report.find("unreadable-cur"), std::string::npos) << report;
}

/**
 * The report's status on a sidecar of `members` next to one node; with
 * `identity`, the sidecar also names its campaign and commit, as
 * rrs-campaign always does.
 */
int
reportOnDocument(const std::string &name, const std::string &members,
                 std::string &error, bool identity = true)
{
    const Ledger ledger = gateLedger(name, {});
    std::ofstream(ledger.directory() + "/campaign.json")
        << "{\"campaign_schema\": " << harness::campaignSchemaVersion
        << (identity ? ", \"name\": \"sidecar\", \"git_sha\": \"abc\""
                     : "")
        << ", " << members << "}\n";
    std::string out;
    return harness::renderCampaignReport(ledger, harness::ReportOptions{},
                                         out, error);
}

// The sidecar's figure list becomes Table III rows and node file
// paths, so it is read as written or refused.
int
reportOnFigures(const std::string &name, const std::string &figures,
                std::string &error)
{
    return reportOnDocument(name, "\"figures\": [" + figures + "]", error);
}

TEST(ReportSidecarTest, RefusesSizesAndDigestsNotReadAsWritten)
{
    std::string error;
    EXPECT_EQ(reportOnFigures(
                  "sidecar_ok",
                  "{\"figure\": \"t3\", \"kind\": \"table3\", "
                  "\"sizes\": [48, 64]}",
                  error),
              0)
        << error;

    for (const char *sizes : {"[0]", "[48.5]", "[-48]", "[4294967296]"}) {
        EXPECT_EQ(reportOnFigures("sidecar_sizes",
                                  std::string("{\"figure\": \"t3\", "
                                              "\"kind\": \"table3\", "
                                              "\"sizes\": ") +
                                      sizes + "}",
                                  error),
                  2)
            << sizes;
        EXPECT_NE(error.find("'sizes' entry must be a positive integer"),
                  std::string::npos)
            << error;
    }

    for (const char *node :
         {"\"../../campaign\"", "\"0123456789ABCDEF\"", "\"abc\"", "7"}) {
        EXPECT_EQ(reportOnFigures("sidecar_nodes",
                                  std::string("{\"figure\": \"f\", "
                                              "\"kind\": \"fig11\", "
                                              "\"sizes\": [48], "
                                              "\"nodes\": [") +
                                      node + "]}",
                                  error),
                  2)
            << node;
        EXPECT_NE(error.find("16 lowercase hex digits"), std::string::npos)
            << error;
    }
}

// Every member the report reads from a sidecar is checked against what
// rrs-campaign writes: a member that is missing, of another kind or out
// of its range makes the sidecar unreadable (status 2, the field
// named), never a crash or a silently cast number.
int
reportOnSidecar(const std::string &name, const std::string &members,
                std::string &error, const std::string &phases = "",
                const std::string &figures = "")
{
    return reportOnDocument(name,
                            members + ", \"phases\": [" + phases +
                                "], \"figures\": [" + figures + "]",
                            error);
}

const char *const goodCounts =
    "\"threads\": 2, \"wall_seconds\": 1.5, \"nodes_total\": 1, "
    "\"nodes_cached\": 0, \"nodes_simulated\": 1, \"nodes_deferred\": 0";

const char *const goodPhase =
    "{\"path\": \"simulate\", \"count\": 1, \"seconds\": 0.5, "
    "\"p50_us\": 1, \"p95_us\": 1, \"max_us\": 1}";

TEST(ReportSidecarTest, WorkloadWithoutNameIsUnreadable)
{
    std::string error;
    auto figure = [](const std::string &workload) {
        return "{\"figure\": \"t3\", \"kind\": \"table3\", "
               "\"sizes\": [64], \"scheme_labels\": [\"baseline\"], "
               "\"workloads\": [" +
               workload + "]}";
    };
    EXPECT_EQ(reportOnSidecar("sidecar_workload_ok", goodCounts, error, "",
                              figure("{\"name\": \"int_sort\", "
                                     "\"suite\": \"int\"}")),
              0)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_workload", goodCounts, error, "",
                              figure("{\"suite\": \"int\"}")),
              2);
    EXPECT_NE(error.find("'figures[0].workloads[0].name' is missing"),
              std::string::npos)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_workload_suite", goodCounts, error,
                              "",
                              figure("{\"name\": \"int_sort\", "
                                     "\"suite\": 3}")),
              2);
    EXPECT_NE(
        error.find("'figures[0].workloads[0].suite' must be a string"),
        std::string::npos)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_labels", goodCounts, error, "",
                              "{\"figure\": \"t3\", \"kind\": \"table3\", "
                              "\"scheme_labels\": [7]}"),
              2);
    EXPECT_NE(error.find("'scheme_labels' entry must be a string"),
              std::string::npos)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_kind", goodCounts, error, "",
                              "{\"figure\": \"t3\", \"kind\": 3}"),
              2);
    EXPECT_NE(error.find("'figures[0].kind' must be a string"),
              std::string::npos)
        << error;
}

TEST(ReportSidecarTest, PhaseRowWithoutPathIsUnreadable)
{
    std::string error;
    EXPECT_EQ(reportOnSidecar("sidecar_phase_ok", goodCounts, error,
                              goodPhase),
              0)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_phase", goodCounts, error,
                              "{\"count\": 1, \"seconds\": 0.5, "
                              "\"p50_us\": 1, \"p95_us\": 1, \"max_us\": 1}"),
              2);
    EXPECT_NE(error.find("'phases[0].path' is missing"), std::string::npos)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_phase_count", goodCounts, error,
                              std::string(goodPhase) +
                                  ", {\"path\": \"x\", \"count\": 1.5, "
                                  "\"seconds\": 0.5, \"p50_us\": 1, "
                                  "\"p95_us\": 1, \"max_us\": 1}"),
              2);
    EXPECT_NE(error.find("'phases[1].count' must be a non-negative integer"),
              std::string::npos)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_phase_p95", goodCounts, error,
                              "{\"path\": \"x\", \"count\": 1, "
                              "\"seconds\": 0.5, \"p50_us\": 1, "
                              "\"p95_us\": \"1\", \"max_us\": 1}"),
              2);
    EXPECT_NE(error.find("'phases[0].p95_us' must be a number"),
              std::string::npos)
        << error;
}

TEST(ReportSidecarTest, FractionalCountsAreUnreadable)
{
    std::string error;
    EXPECT_EQ(reportOnSidecar("sidecar_fraction",
                              "\"threads\": 2.5, \"nodes_total\": 3.7", error),
              2);
    EXPECT_NE(error.find("'threads' must be a non-negative integer"),
              std::string::npos)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_fraction_tc",
                              std::string(goodCounts) +
                                  ", \"trace_cache\": {\"hits\": 0.5}",
                              error),
              2);
    EXPECT_NE(error.find("'trace_cache.hits'"), std::string::npos) << error;

    // The baseline's sidecar is read the same way: the gate cannot
    // compare against one it cannot read.
    const Ledger base = gateLedger("sidecar_fraction_base", {});
    const Ledger cur = gateLedger("sidecar_fraction_cur", {});
    std::ofstream(base.directory() + "/campaign.json")
        << "{\"campaign_schema\": " << harness::campaignSchemaVersion
        << ", \"threads\": 1, \"wall_seconds\": 2, \"nodes_total\": 1.5, "
        << "\"nodes_simulated\": 1}\n";
    std::string report;
    EXPECT_EQ(gate(base, cur, 50, &report), 2);
    EXPECT_NE(report.find("'nodes_total' must be a non-negative integer"),
              std::string::npos)
        << report;
}

TEST(ReportSidecarTest, RefusesMembersOfAnotherKind)
{
    // An object where rrs-campaign writes an array used to read as an
    // empty one, and a trace_cache that is not an object as zero
    // traffic: a report with no figures, or "Not recorded" phases,
    // that exited 0.
    const std::string figure =
        "\"figures\": [{\"figure\": \"t3\", \"kind\": \"table3\", ";
    const std::pair<std::string, const char *> cases[] = {
        {"\"figures\": {}", "'figures' must be an array"},
        {"\"phases\": {}", "'phases' must be an array"},
        {"\"trace_cache\": 7", "'trace_cache' must be an object"},
        {figure + "\"sizes\": {}}]", "'figures[0].sizes' must be an array"},
        {figure + "\"scheme_labels\": \"base\"}]",
         "'figures[0].scheme_labels' must be an array"},
        {figure + "\"workloads\": {}}]",
         "'figures[0].workloads' must be an array"},
        {figure + "\"nodes\": 7}]", "'figures[0].nodes' must be an array"},
    };
    for (const auto &[members, diagnostic] : cases) {
        std::string error;
        EXPECT_EQ(reportOnDocument("sidecar_kind_of", members, error), 2)
            << members;
        EXPECT_NE(error.find(diagnostic), std::string::npos)
            << members << ": " << error;
    }
}

TEST(ReportSidecarTest, RefusesIdentityMissingOrOfAnotherKind)
{
    // The campaign's name and commit used to render whatever was there:
    // `# Campaign report: ` and an empty sha, with exit 0.
    const std::string figures = "\"figures\": []";
    const std::pair<std::string, const char *> cases[] = {
        {"\"name\": 7, \"git_sha\": \"abc\"", "'name' must be a string"},
        {"\"name\": \"c\", \"git_sha\": [\"x\"]",
         "'git_sha' must be a string"},
        {"\"git_sha\": \"abc\"", "'name' is missing"},
        {"\"name\": \"c\"", "'git_sha' is missing"},
    };
    for (const auto &[identity, diagnostic] : cases) {
        std::string error;
        EXPECT_EQ(reportOnDocument("sidecar_identity",
                                   identity + ", " + figures, error,
                                   /*identity=*/false),
                  2)
            << identity;
        EXPECT_NE(error.find(diagnostic), std::string::npos)
            << identity << ": " << error;
    }
    std::string error;
    EXPECT_EQ(reportOnDocument("sidecar_identity_ok", figures, error), 0)
        << error;
}

TEST(ReportSidecarTest, FigureWithoutNameIsUnreadable)
{
    // A figure without its name used to render as `##  (table3)`.
    std::string error;
    EXPECT_EQ(reportOnFigures("sidecar_figure",
                              "{\"kind\": \"table3\", \"sizes\": [64]}",
                              error),
              2);
    EXPECT_NE(error.find("'figures[0].figure' is missing"),
              std::string::npos)
        << error;
    EXPECT_EQ(reportOnFigures("sidecar_figure_kind",
                              "{\"figure\": 7, \"kind\": \"table3\"}",
                              error),
              2);
    EXPECT_NE(error.find("'figures[0].figure' must be a string"),
              std::string::npos)
        << error;
}

TEST(ReportSidecarTest, NodeWithoutCyclesCannotRender)
{
    // A figure node that stores no cycle has no IPC: the report used
    // to abort in the figure's geomean.
    const Ledger ledger(tempDir("report_zero_cycles"));
    std::string nodes, error;
    for (const std::string scheme : {"baseline", "reuse"}) {
        harness::LedgerEntry e;
        e.spec.workload = "int_sort";
        e.spec.scheme = scheme;
        e.spec.regs = 64;
        e.outcome.sim.committedInsts = 800;
        e.outcome.sim.cycles = scheme == "baseline" ? 0 : 1000;
        const std::string hex =
            harness::digestHex(harness::nodeDigest(e.spec));
        ASSERT_TRUE(ledger.store(hex, e, error)) << error;
        nodes += (nodes.empty() ? "\"" : ", \"") + hex + "\"";
    }
    std::ofstream(ledger.directory() + "/campaign.json")
        << "{\"campaign_schema\": " << harness::campaignSchemaVersion
        << ", \"name\": \"zero\", \"git_sha\": \"abc\", "
        << "\"figures\": [{\"figure\": \"f\", "
        << "\"kind\": \"fig11\", \"sizes\": [64], \"workloads\": "
        << "[{\"name\": \"int_sort\", \"suite\": \"specint\"}], "
        << "\"nodes\": [" << nodes << "]}]}\n";
    std::string out;
    EXPECT_EQ(harness::renderCampaignReport(ledger, harness::ReportOptions{},
                                            out, error),
              2);
    EXPECT_NE(error.find("'cycles' must be positive"), std::string::npos)
        << error;
    EXPECT_NE(out.find("Cannot render"), std::string::npos) << out;
}

TEST(ReportSidecarTest, NegativeCountIsUnreadable)
{
    std::string error;
    EXPECT_EQ(reportOnSidecar("sidecar_negative",
                              "\"nodes_simulated\": -5", error),
              2);
    EXPECT_NE(error.find("'nodes_simulated' must be a non-negative integer"),
              std::string::npos)
        << error;
    EXPECT_EQ(reportOnSidecar("sidecar_wall",
                              "\"wall_seconds\": \"fast\"", error),
              2);
    EXPECT_NE(error.find("'wall_seconds' must be a number"),
              std::string::npos)
        << error;
}

} // namespace

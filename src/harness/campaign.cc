#include "campaign.hh"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "obs/jsonlite.hh"
#include "obs/profiler.hh"
#include "stats/stats.hh"

namespace rrs::harness {

namespace {

using obs::json::checkNoDuplicateKeys;
using obs::json::readInteger;
using obs::json::Value;
using stats::jsonNumber;
using stats::jsonQuoted;

/** The document label of every duplicate-key diagnostic. */
constexpr const char *doc = "campaign manifest";

bool
parseKind(const std::string &s, CampaignFigure::Kind &out)
{
    if (s == "fig10")
        out = CampaignFigure::Kind::Fig10;
    else if (s == "fig11")
        out = CampaignFigure::Kind::Fig11;
    else if (s == "table3")
        out = CampaignFigure::Kind::Table3;
    else
        return false;
    return true;
}

bool
parseFigure(const Value &v, CampaignFigure &fig, std::string &error)
{
    if (!v.isObject()) {
        error = "campaign manifest: each figure must be an object";
        return false;
    }
    if (!checkNoDuplicateKeys(v, doc, "a figure entry", error))
        return false;
    const Value *name = v.find("figure");
    if (!name || !name->isString() || name->str.empty()) {
        error = "campaign manifest: figure entries need a non-empty "
                "string 'figure' member";
        return false;
    }
    fig.name = name->str;
    const std::string where = "figure '" + fig.name + "'";

    bool sawKind = false, sawMatrix = false, sawSizes = false;
    for (const auto &[key, val] : v.members) {
        if (key == "figure") {
            continue;
        } else if (key == "kind") {
            sawKind = true;
            if (!val.isString() || !parseKind(val.str, fig.kind)) {
                error = "campaign manifest: " + where + ": 'kind' must "
                        "be one of fig10/fig11/table3";
                return false;
            }
        } else if (key == "matrix") {
            sawMatrix = true;
            if (!tryParseSweepMatrix(val, fig.matrix, error)) {
                error = "campaign manifest: " + where + ": " + error;
                return false;
            }
        } else if (key == "sizes") {
            sawSizes = true;
            if (!val.isArray() || val.arr.empty()) {
                error = "campaign manifest: " + where + ": 'sizes' "
                        "must be a non-empty array";
                return false;
            }
            for (const auto &entry : val.arr) {
                std::uint64_t n = 0;
                if (!readInteger(entry, 1,
                                 std::numeric_limits<std::uint32_t>::max(),
                                 "campaign manifest: " + where +
                                     ": each 'sizes' entry",
                                 n, error))
                    return false;
                fig.sizes.push_back(static_cast<std::uint32_t>(n));
            }
        } else {
            error = "campaign manifest: " + where + ": unknown key '" +
                    key + "' (expected figure/kind/matrix/sizes)";
            return false;
        }
    }
    if (!sawKind) {
        error = "campaign manifest: " + where + " needs a 'kind' member";
        return false;
    }
    if (fig.kind == CampaignFigure::Kind::Table3) {
        if (!sawSizes || sawMatrix) {
            error = "campaign manifest: " + where + ": table3 figures "
                    "take 'sizes', not a 'matrix'";
            return false;
        }
        return true;
    }
    if (!sawMatrix || sawSizes) {
        error = "campaign manifest: " + where + ": " +
                campaignKindName(fig.kind) +
                " figures take a 'matrix', not 'sizes'";
        return false;
    }
    if (fig.matrix.schemes.size() != 2) {
        error = "campaign manifest: " + where + ": " +
                campaignKindName(fig.kind) + " needs exactly two scheme "
                "columns (base, proposed); the matrix has " +
                std::to_string(fig.matrix.schemes.size());
        return false;
    }
    return true;
}

/** Best-effort current commit: GITHUB_SHA, `git rev-parse`, "unknown". */
std::string
currentGitSha()
{
    if (const char *env = std::getenv("GITHUB_SHA"))
        return env;
    if (FILE *p = ::popen("git rev-parse --short=12 HEAD 2>/dev/null",
                          "r")) {
        char buf[64] = {0};
        std::string sha;
        if (std::fgets(buf, sizeof(buf), p))
            sha = buf;
        ::pclose(p);
        while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
            sha.pop_back();
        if (!sha.empty())
            return sha;
    }
    return "unknown";
}

/**
 * Render the campaign.json sidecar.  `sweep` is the summary of the
 * sweep that simulated the missing nodes (all zero when none were).
 */
std::string
renderCampaignJson(const CampaignManifest &m, const CampaignPlan &plan,
                   const CampaignResult &result, const SweepSummary &sweep)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"campaign_schema\": " << campaignSchemaVersion << ",\n"
       << "  \"name\": " << jsonQuoted(m.name) << ",\n"
       << "  \"git_sha\": " << jsonQuoted(currentGitSha()) << ",\n"
       << "  \"threads\": " << sweep.threads << ",\n"
       << "  \"wall_seconds\": " << jsonNumber(sweep.wallSeconds) << ",\n"
       << "  \"nodes_total\": " << result.totalNodes << ",\n"
       << "  \"nodes_cached\": " << result.hits << ",\n"
       << "  \"nodes_simulated\": " << result.simulated << ",\n"
       << "  \"nodes_deferred\": " << result.remaining << ",\n"
       << "  \"trace_cache\": {\"hits\": " << sweep.traceHits
       << ", \"misses\": " << sweep.traceMisses
       << ", \"captured_insts\": " << sweep.instsCaptured
       << ", \"replayed_insts\": " << sweep.instsReplayed << "},\n"
       << "  \"phases\": [";
    // Host-side phase profile (RRS_PROF) of that sweep, one row per
    // phase path of the merged run table, in first-entry order: sidecar
    // data for the report's phase table, never part of the node files.
    bool firstPhase = true;
    if (result.simulated > 0 && obs::Profiler::enabled()) {
        const obs::PhaseTable runs = obs::Profiler::runTable();
        for (const obs::PhaseRow &r : runs.rows) {
            os << (firstPhase ? "\n" : ",\n") << "    {\"path\": "
               << jsonQuoted(r.path) << ", \"count\": " << r.count
               << ", \"seconds\": " << jsonNumber(r.seconds)
               << ", \"p50_us\": "
               << jsonNumber(stats::percentile(r.perRunUs, 50))
               << ", \"p95_us\": "
               << jsonNumber(stats::percentile(r.perRunUs, 95))
               << ", \"max_us\": "
               << jsonNumber(stats::percentile(r.perRunUs, 100)) << "}";
            firstPhase = false;
        }
    }
    os << (firstPhase ? "" : "\n  ") << "],\n"
       << "  \"figures\": [";
    bool firstFig = true;
    for (const auto &fp : plan.figures) {
        os << (firstFig ? "\n" : ",\n") << "    {\n"
           << "      \"figure\": " << jsonQuoted(fp.figure->name) << ",\n"
           << "      \"kind\": "
           << jsonQuoted(campaignKindName(fp.figure->kind)) << ",\n"
           << "      \"sizes\": [";
        for (std::size_t i = 0; i < fp.sizes.size(); ++i)
            os << (i ? ", " : "") << fp.sizes[i];
        os << "],\n"
           << "      \"scheme_labels\": [";
        for (std::size_t i = 0; i < fp.schemeLabels.size(); ++i)
            os << (i ? ", " : "") << jsonQuoted(fp.schemeLabels[i]);
        os << "],\n"
           << "      \"workloads\": [";
        for (std::size_t i = 0; i < fp.workloads.size(); ++i) {
            os << (i ? ", " : "") << "{\"name\": "
               << jsonQuoted(fp.workloads[i].first) << ", \"suite\": "
               << jsonQuoted(fp.workloads[i].second) << "}";
        }
        os << "],\n"
           << "      \"nodes\": [";
        for (std::size_t i = 0; i < fp.digests.size(); ++i)
            os << (i ? ", " : "") << jsonQuoted(fp.digests[i]);
        os << "]\n    }";
        firstFig = false;
    }
    os << (firstFig ? "" : "\n  ") << "]\n"
       << "}\n";
    return os.str();
}

} // namespace

const char *
campaignKindName(CampaignFigure::Kind kind)
{
    switch (kind) {
    case CampaignFigure::Kind::Fig10: return "fig10";
    case CampaignFigure::Kind::Fig11: return "fig11";
    case CampaignFigure::Kind::Table3: return "table3";
    }
    return "?";
}

bool
tryParseCampaignManifest(const std::string &text, CampaignManifest &out,
                         std::string &error)
{
    Value root;
    std::string jsonError;
    if (!obs::json::parse(text, root, &jsonError)) {
        error = "campaign manifest: " + jsonError;
        return false;
    }
    if (!root.isObject()) {
        error = "campaign manifest: the document root must be an object";
        return false;
    }
    if (!checkNoDuplicateKeys(root, doc, "the manifest", error))
        return false;

    CampaignManifest m;
    bool sawFigures = false;
    for (const auto &[key, val] : root.members) {
        if (key == "name") {
            if (!val.isString() || val.str.empty()) {
                error = "campaign manifest: 'name' must be a non-empty "
                        "string";
                return false;
            }
            m.name = val.str;
        } else if (key == "cap") {
            if (!readInteger(val, 1,
                             std::numeric_limits<std::uint64_t>::max(),
                             "campaign manifest: 'cap'", m.cap, error))
                return false;
        } else if (key == "figures") {
            sawFigures = true;
            if (!val.isArray()) {
                error = "campaign manifest: 'figures' must be an array";
                return false;
            }
            for (const auto &entry : val.arr) {
                CampaignFigure fig;
                if (!parseFigure(entry, fig, error))
                    return false;
                for (const auto &prev : m.figures) {
                    if (prev.name == fig.name) {
                        error = "campaign manifest: duplicate figure "
                                "name '" + fig.name + "'";
                        return false;
                    }
                }
                m.figures.push_back(std::move(fig));
            }
        } else {
            error = "campaign manifest: unknown key '" + key +
                    "' (expected name/cap/figures)";
            return false;
        }
    }
    if (m.name.empty()) {
        error = "campaign manifest: 'name' must be a non-empty string";
        return false;
    }
    if (!sawFigures || m.figures.empty()) {
        error = "campaign manifest: 'figures' must be a non-empty array";
        return false;
    }
    out = std::move(m);
    return true;
}

CampaignManifest
loadCampaignManifestFile(const std::string &path)
{
    std::string text;
    if (!tryReadFile(path, text))
        rrs_fatal("cannot open campaign manifest '%s'", path.c_str());
    CampaignManifest m;
    std::string error;
    if (!tryParseCampaignManifest(text, m, error))
        rrs_fatal("%s: %s", path.c_str(), error.c_str());
    return m;
}

CampaignPlan
planCampaign(const CampaignManifest &manifest,
             const CampaignOptions &opts)
{
    CampaignPlan plan;
    const std::uint64_t capDefault =
        manifest.cap ? manifest.cap : defaultTimingInsts;
    for (const auto &fig : manifest.figures) {
        CampaignPlan::FigurePlan fp;
        fp.figure = &fig;
        if (fig.kind == CampaignFigure::Kind::Table3) {
            fp.sizes = fig.sizes;
            plan.figures.push_back(std::move(fp));
            continue;
        }

        SweepMatrix m = fig.matrix;
        if (opts.capOverride)
            m.cap = opts.capOverride;
        fp.sizes = m.rfSizes;
        for (const auto &spec : m.schemes)
            fp.schemeLabels.push_back(spec.label);

        // Campaigns run the manifest's declared set, never the bench
        // CLI filters; the matrix's own suite member is the only knob.
        const std::vector<workloads::Workload> ws =
            m.suite.empty() ? workloads::allWorkloads()
                            : workloads::suiteWorkloads(m.suite);
        for (const auto &w : ws)
            fp.workloads.emplace_back(w.name, w.suite);

        // Item k of expandSweepMatrix's order — workloads outermost,
        // then sizes, then scheme columns — is seeded from k, so the
        // same matrix always yields the same digests no matter which
        // figures share it or which nodes were already present.
        std::vector<SweepItem> items =
            expandSweepMatrix(m, ws, capDefault);
        const std::size_t cols = m.schemes.size();
        for (std::size_t k = 0; k < items.size(); ++k) {
            SweepItem &item = items[k];
            // The canonical registry entry outlives every plan; the
            // local `ws` copy does not.
            item.workload = &workloads::workload(item.workload->name);
            item.seedIndex = k;
            const workloads::Workload &w = *item.workload;
            const SchemeSpec &scheme = m.schemes[k % cols];
            NodeSpec spec;
            spec.workload = w.name;
            spec.suite = w.suite;
            spec.sourceHash = workloads::sourceHash(w);
            spec.scheme = scheme.scheme;
            spec.label = scheme.label;
            spec.params = scheme.params;
            spec.regs = m.rfSizes[k / cols % m.rfSizes.size()];
            spec.cap = workloads::resolvedCap(w, item.config.maxInsts);
            spec.sampling = item.config.sampling;
            spec.seed = item.runSeed(k);

            const std::string hex = digestHex(nodeDigest(spec));
            fp.digests.push_back(hex);
            if (plan.nodes.find(hex) == plan.nodes.end()) {
                plan.order.push_back(hex);
                plan.nodes.emplace(
                    hex, PlannedNode{std::move(spec), std::move(item)});
            }
        }
        plan.figures.push_back(std::move(fp));
    }
    return plan;
}

CampaignResult
runCampaign(const CampaignManifest &manifest, const Ledger &ledger,
            const CampaignOptions &opts, std::ostream &os)
{
    const CampaignPlan plan = planCampaign(manifest, opts);

    CampaignResult result;
    result.totalNodes = plan.order.size();
    std::vector<const std::string *> missing;
    for (const std::string &hex : plan.order) {
        if (ledger.has(hex))
            ++result.hits;
        else
            missing.push_back(&hex);
    }
    std::size_t toRun = missing.size();
    if (toRun > opts.maxNewNodes)
        toRun = opts.maxNewNodes;
    result.remaining = missing.size() - toRun;

    os << "campaign '" << manifest.name << "': " << result.totalNodes
       << " nodes, " << result.hits << " cached, " << toRun
       << " to simulate";
    if (result.remaining)
        os << " (" << result.remaining << " deferred by --max-new-nodes)";
    os << "\n";

    SweepSummary sweep;
    if (toRun > 0) {
        SweepRunner runner(opts.threads);
        std::vector<SweepItem> items;
        items.reserve(toRun);
        for (std::size_t i = 0; i < toRun; ++i)
            items.push_back(plan.nodes.at(*missing[i]).item);
        const std::vector<SweepResult> results = runner.run(items);
        sweep = runner.summary();
        for (std::size_t i = 0; i < toRun; ++i) {
            const std::string &hex = *missing[i];
            std::string error;
            if (!ledger.store(hex,
                              {plan.nodes.at(hex).spec, results[i].outcome},
                              error))
                rrs_fatal("cannot store ledger node %s: %s",
                          hex.c_str(), error.c_str());
        }
        result.simulated = toRun;
        runner.printSummary(os);
    }

    // The sidecar carries the host context and the figure -> digest
    // mapping the report renders from.  It is rewritten on every run
    // (including partial ones) and deliberately excluded from ledger
    // byte-comparisons: nodes/ is the deterministic artifact.
    result.sidecarPath = ledger.directory() + "/campaign.json";
    std::string error;
    if (!tryWriteFileAtomic(result.sidecarPath,
                            renderCampaignJson(manifest, plan, result,
                                               sweep),
                            error))
        rrs_fatal("cannot write campaign sidecar '%s': %s",
                  result.sidecarPath.c_str(), error.c_str());
    return result;
}

} // namespace rrs::harness

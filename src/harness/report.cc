#include "report.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "area/area.hh"
#include "common/atomicfile.hh"
#include "harness/campaign.hh"
#include "harness/figures.hh"
#include "obs/jsonlite.hh"
#include "obs/stallcause.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

namespace rrs::harness {

namespace {

using obs::json::Value;
using Array = std::vector<Value>;

/** One figure descriptor out of the campaign.json sidecar. */
struct FigureDesc
{
    std::string name;
    std::string kind;
    std::vector<std::uint32_t> sizes;
    std::vector<std::pair<std::string, std::string>> workloads;
    std::vector<std::string> nodes;
};

std::string
shortDigest(const std::string &hex)
{
    return hex.substr(0, 8);
}

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

/** Read and parse a ledger's campaign.json sidecar. */
bool
loadSidecar(const Ledger &ledger, Value &doc, std::string &error)
{
    const std::string path = ledger.directory() + "/campaign.json";
    std::string text;
    if (!tryReadFile(path, text)) {
        error = "no campaign sidecar at " + path +
                " (run rrs-campaign first)";
        return false;
    }
    if (!obs::json::parse(text, doc, &error)) {
        error = path + ": " + error;
        return false;
    }
    const Value *schema = doc.find("campaign_schema");
    std::uint64_t version = 0;
    std::string schemaError;
    if (!schema ||
        !obs::json::readInteger(*schema, campaignSchemaVersion,
                                campaignSchemaVersion, "campaign_schema",
                                version, schemaError)) {
        error = path + ": missing or unsupported campaign_schema";
        return false;
    }
    return true;
}

/** A node digest as the sidecar lists it: 16 lowercase hex digits. */
bool
isDigestHex(const std::string &s)
{
    return s.size() == 16 &&
           s.find_first_not_of("0123456789abcdef") == std::string::npos;
}

/**
 * Read member `key` of a sidecar object as its writer emits it
 * (obs::json::readMember), named by its path in the sidecar (`where`
 * is the enclosing path, "" at the root).
 */
template <typename T>
bool
sidecarMember(const Value &obj, const std::string &where, const char *key,
              bool required, T &out, std::string &error)
{
    return obs::json::readMember(obj, key,
                                 "campaign sidecar: '" + where + key + "'",
                                 required, out, error);
}

/**
 * The figure descriptors of a sidecar.  Sizes must be register counts
 * (1..2^32-1) and nodes digests, since each becomes a file path.
 */
bool
parseFigures(const Value &doc, std::vector<FigureDesc> &figures,
             std::string &error)
{
    const Array *figs = nullptr;
    if (!sidecarMember(doc, "", "figures", false, figs, error))
        return false;
    for (std::size_t i = 0; i < figs->size(); ++i) {
        const Value &f = (*figs)[i];
        const std::string field = "figures[" + std::to_string(i) + "].";
        FigureDesc fd;
        const Array *sizes = nullptr, *labels = nullptr,
                    *workloads = nullptr, *nodes = nullptr;
        if (!sidecarMember(f, field, "figure", true, fd.name, error) ||
            !sidecarMember(f, field, "kind", false, fd.kind, error) ||
            !sidecarMember(f, field, "sizes", false, sizes, error) ||
            !sidecarMember(f, field, "scheme_labels", false, labels, error) ||
            !sidecarMember(f, field, "workloads", false, workloads, error) ||
            !sidecarMember(f, field, "nodes", false, nodes, error))
            return false;
        const std::string where = "campaign sidecar: figure '" + fd.name + "'";
        for (const auto &e : *sizes) {
            std::uint64_t regs = 0;
            if (!obs::json::readInteger(e, 1, 0xffffffffULL,
                                        where + " 'sizes' entry", regs,
                                        error))
                return false;
            fd.sizes.push_back(static_cast<std::uint32_t>(regs));
        }
        // The report reads no scheme label, but a label that is not a
        // string marks a sidecar not written by rrs-campaign.
        for (const auto &e : *labels) {
            if (!e.isString()) {
                error = where + ": each 'scheme_labels' entry must be "
                                "a string";
                return false;
            }
        }
        for (std::size_t w = 0; w < workloads->size(); ++w) {
            const Value &wv = (*workloads)[w];
            const std::string at =
                field + "workloads[" + std::to_string(w) + "].";
            auto &[name, suite] = fd.workloads.emplace_back();
            if (!sidecarMember(wv, at, "name", true, name, error) ||
                !sidecarMember(wv, at, "suite", true, suite, error))
                return false;
        }
        for (const auto &e : *nodes) {
            if (!e.isString() || !isDigestHex(e.str)) {
                error = where + ": each 'nodes' entry must be 16 "
                                "lowercase hex digits";
                return false;
            }
            fd.nodes.push_back(e.str);
        }
        figures.push_back(std::move(fd));
    }
    return true;
}

/**
 * The host cost a sidecar records for the run that last wrote it, read
 * back into the types rrs-campaign wrote it from; every member is
 * optional (0).
 */
bool
readHostCost(const Value &doc, CampaignResult &nodes, SweepSummary &sweep,
             std::string &error)
{
    const Value *tc = nullptr;
    const std::string t = "trace_cache.";
    return sidecarMember(doc, "", "trace_cache", false, tc, error) &&
           sidecarMember(doc, "", "threads", false, sweep.threads, error) &&
           sidecarMember(doc, "", "wall_seconds", false, sweep.wallSeconds,
                         error) &&
           sidecarMember(doc, "", "nodes_total", false, nodes.totalNodes,
                         error) &&
           sidecarMember(doc, "", "nodes_cached", false, nodes.hits,
                         error) &&
           sidecarMember(doc, "", "nodes_simulated", false, nodes.simulated,
                         error) &&
           sidecarMember(doc, "", "nodes_deferred", false, nodes.remaining,
                         error) &&
           sidecarMember(*tc, t, "hits", false, sweep.traceHits, error) &&
           sidecarMember(*tc, t, "misses", false, sweep.traceMisses,
                         error) &&
           sidecarMember(*tc, t, "captured_insts", false,
                         sweep.instsCaptured, error) &&
           sidecarMember(*tc, t, "replayed_insts", false,
                         sweep.instsReplayed, error);
}

/** Did two sweeps move the same trace-cache traffic? */
bool
sameTraffic(const SweepSummary &a, const SweepSummary &b)
{
    return a.traceHits == b.traceHits && a.traceMisses == b.traceMisses &&
           a.instsCaptured == b.instsCaptured &&
           a.instsReplayed == b.instsReplayed;
}

/**
 * Load the node grid of a sweep figure as [workload][size] pairs, in
 * the flat w-major, size, scheme-column order the plan recorded.
 */
bool
loadPairGrid(const Ledger &ledger, const FigureDesc &fig,
             std::vector<std::vector<OutcomePair>> &grid,
             std::vector<std::vector<LedgerEntry>> &entries,
             std::string &error)
{
    const std::size_t w = fig.workloads.size();
    const std::size_t s = fig.sizes.size();
    if (fig.nodes.size() != w * s * 2) {
        error = "figure '" + fig.name + "': sidecar lists " +
                std::to_string(fig.nodes.size()) + " nodes, expected " +
                std::to_string(w * s * 2);
        return false;
    }
    grid.assign(w, std::vector<OutcomePair>(s));
    entries.assign(w, {});
    std::size_t k = 0;
    for (std::size_t wi = 0; wi < w; ++wi) {
        for (std::size_t si = 0; si < s; ++si) {
            LedgerEntry base, prop;
            if (!ledger.tryLoad(fig.nodes[k], base, error) ||
                !ledger.tryLoad(fig.nodes[k + 1], prop, error))
                return false;
            grid[wi][si].base = base.outcome;
            grid[wi][si].prop = prop.outcome;
            entries[wi].push_back(std::move(base));
            entries[wi].push_back(std::move(prop));
            k += 2;
        }
    }
    return true;
}

/** The per-node stall-attribution table of one sweep figure. */
std::string
renderStallTable(const std::vector<std::vector<LedgerEntry>> &entries)
{
    std::vector<std::string> headers = {"node", "workload", "scheme",
                                        "regs", "cycles"};
    for (int c = 0; c < obs::numCycleCauses; ++c) {
        headers.push_back(
            std::string(obs::cycleCauseName(
                static_cast<obs::CycleCause>(c))) +
            "%");
    }
    stats::TextTable t(headers);
    for (const auto &row : entries) {
        for (const auto &e : row) {
            const obs::StallBreakdown &stalls = e.outcome.stalls;
            const std::uint64_t cycles = stalls.sum();
            t.row()
                .cell(shortDigest(digestHex(nodeDigest(e.spec))))
                .cell(e.spec.workload)
                .cell(e.spec.label)
                .cell(e.spec.regs)
                .cell(e.outcome.sim.cycles);
            for (int c = 0; c < obs::numCycleCauses; ++c)
                t.cell(pct(stalls.counts[c], cycles), 1);
        }
    }
    std::ostringstream os;
    t.print(os, "Per-node cycle attribution (percent of attributed "
                "cycles; one cause per cycle)");
    return os.str();
}

/** The drift section against a baseline ledger. */
std::string
renderDriftSection(const Ledger &baseline, const LedgerDiff &d)
{
    std::ostringstream os;
    os << "Baseline: " << baseline.directory() << "\n\n";
    if (d.clean()) {
        os << "No drift: every shared node matches (exact nodes on "
              "every stored result, sampled nodes within CI overlap), "
              "and the node sets are equal.\n";
        return os.str();
    }
    if (!d.onlyBase.empty() || !d.onlyCur.empty()) {
        os << "Node-set difference: " << d.onlyBase.size()
           << " node(s) only in the baseline, " << d.onlyCur.size()
           << " only in the current ledger (campaign shape or digests "
              "changed — different cap, matrix, sampling mode, or "
              "kernel source).\n";
        auto list = [&os](const char *label,
                          const std::vector<std::string> &v) {
            if (v.empty())
                return;
            os << "  " << label << ":";
            for (const auto &hex : v)
                os << " " << shortDigest(hex);
            os << "\n";
        };
        list("only baseline", d.onlyBase);
        list("only current", d.onlyCur);
    }
    if (!d.drift.empty()) {
        os << "DRIFT in " << d.drift.size()
           << " metric(s) across shared nodes:\n";
        stats::TextTable t({"node", "workload", "scheme", "regs",
                            "metric", "baseline", "current"});
        for (const auto &row : d.drift) {
            t.row()
                .cell(shortDigest(row.digest))
                .cell(row.workload)
                .cell(row.scheme)
                .cell(row.regs)
                .cell(row.metric)
                .cell(row.baseVal)
                .cell(row.curVal);
        }
        t.print(os);
        // Explain, don't just flag: a stall-cause row names where the
        // extra cycles went.
        for (const auto &row : d.drift) {
            if (row.metric.rfind("stall.", 0) == 0) {
                os << "  node " << shortDigest(row.digest) << " ("
                   << row.workload << ", " << row.scheme << "@"
                   << row.regs << "): cycles charged to '"
                   << row.metric.substr(6) << "' went "
                   << row.baseVal << " -> " << row.curVal << "\n";
            }
        }
    }
    return os.str();
}

/**
 * The host-cost section: both sidecars side by side and, under a
 * threshold, the gate's verdict.
 * @return the gate's status: 0 pass (or not gated), 1 regression, 2
 *         cannot compare (`error` says why).
 */
int
renderHostCostSection(const Ledger &baseline, const CampaignResult &curNodes,
                      const SweepSummary &cur, bool sameNodes,
                      double thresholdPct, std::ostream &os,
                      std::string &error)
{
    const bool gate = thresholdPct >= 0;
    Value baseDoc;
    CampaignResult baseNodes;
    SweepSummary base;
    std::string loadError;
    if (!loadSidecar(baseline, baseDoc, loadError) ||
        !readHostCost(baseDoc, baseNodes, base, loadError)) {
        os << "Baseline host cost unavailable: " << loadError << "\n";
        if (!gate)
            return 0;
        error = "cannot gate host cost: " + loadError;
        return 2;
    }

    stats::TextTable t({"side", "threads", "wall s", "simulated",
                        "trace hits", "trace misses", "captured insts",
                        "replayed insts"});
    auto row = [&t](const char *side, const CampaignResult &n,
                    const SweepSummary &c) {
        t.row()
            .cell(side)
            .cell(c.threads)
            .cell(c.wallSeconds, 3)
            .cell(std::to_string(n.simulated) + "/" +
                  std::to_string(n.totalNodes))
            .cell(c.traceHits)
            .cell(c.traceMisses)
            .cell(c.instsCaptured)
            .cell(c.instsReplayed);
    };
    row("baseline", baseNodes, base);
    row("current", curNodes, cur);
    t.print(os);
    if (!gate) {
        os << "Not gated (no --throughput-threshold).\n";
        return 0;
    }

    // Wall clock compares only equal work on an equal number of lanes:
    // the same node set, every node simulated on both sides.  A partly
    // cached run, or one spread over more lanes, would pass any
    // threshold, so it must not count as a pass.
    std::string reason;
    if (!sameNodes)
        reason = "the node sets differ";
    else if (baseNodes.simulated != baseNodes.totalNodes)
        reason = "the baseline run did not simulate every node";
    else if (curNodes.simulated != curNodes.totalNodes)
        reason = "the current run did not simulate every node";
    else if (base.threads != cur.threads)
        reason = "the thread counts differ (baseline " +
                 std::to_string(base.threads) + ", current " +
                 std::to_string(cur.threads) + ")";
    if (!reason.empty()) {
        os << "Cannot gate host cost: " << reason << ".\n";
        error = "cannot gate host cost: " + reason;
        return 2;
    }

    // Only a slowdown fails; with equal node sets, runs/s and Minst/s
    // move by the same ratio as the wall clock.
    const double deltaPct =
        base.wallSeconds > 0
            ? 100.0 * (cur.wallSeconds - base.wallSeconds) /
                  base.wallSeconds
            : 0.0;
    const bool slower = deltaPct > thresholdPct;
    const bool trafficSame = sameTraffic(base, cur);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "wall clock: %+.1f%% vs baseline (gate: slowdown over "
                  "%g%%): %s\n",
                  deltaPct, thresholdPct, slower ? "REGRESSION" : "OK");
    os << buf << "trace-cache traffic: "
       << (trafficSame ? "identical" : "DIFFERS") << "\n";
    return slower || !trafficSame ? 1 : 0;
}

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        default: out += c;
        }
    }
    return out;
}

} // namespace

int
renderCampaignReport(const Ledger &ledger, const ReportOptions &opts,
                     std::string &out, std::string &error)
{
    out.clear();
    Value doc;
    if (!loadSidecar(ledger, doc, error))
        return 2;
    // A mistyped baseline path must not read as an empty ledger whose
    // every node is "only current".
    const Ledger baseline(opts.baselineDir);
    if (!opts.baselineDir.empty() &&
        !std::filesystem::is_directory(baseline.nodesDir())) {
        error = "baseline ledger '" + opts.baselineDir +
                "' has no nodes/ directory";
        return 2;
    }

    std::string name, gitSha;
    std::vector<FigureDesc> figures;
    CampaignResult nodes;
    SweepSummary sweep;
    const Array *phases = nullptr;
    if (!sidecarMember(doc, "", "name", true, name, error) ||
        !sidecarMember(doc, "", "git_sha", true, gitSha, error) ||
        !parseFigures(doc, figures, error) ||
        !readHostCost(doc, nodes, sweep, error) ||
        !sidecarMember(doc, "", "phases", false, phases, error))
        return 2;

    std::ostringstream md;
    md << "# Campaign report: " << name << "\n\n"
       << "- git sha: `" << gitSha << "`\n"
       << "- nodes: " << nodes.totalNodes << " total, " << nodes.hits
       << " cached, " << nodes.simulated << " simulated, "
       << nodes.remaining << " deferred\n";
    // threads is 0 when the last run was fully cached (no sweep ran).
    if (sweep.threads) {
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.3f", sweep.wallSeconds);
        md << "- last run: " << sweep.threads << " thread(s), " << wall
           << " s wall clock\n"
           << "- trace cache: " << sweep.traceHits << " hits / "
           << sweep.traceMisses << " misses, " << sweep.instsCaptured
           << " insts captured, " << sweep.instsReplayed
           << " replayed\n";
    }
    md << "\n";

    std::string figureError;   // first figure whose nodes did not load
    for (const auto &fig : figures) {
        md << "## " << fig.name << " (" << fig.kind << ")\n\n";
        if (fig.kind == "table3") {
            // Analytic: the equal-area solver needs no ledger nodes.
            area::AreaModel model;
            md << "```\n" << renderTable3(model, fig.sizes) << "```\n\n";
            continue;
        }

        std::vector<std::vector<OutcomePair>> grid;
        std::vector<std::vector<LedgerEntry>> entries;
        std::string loadError;
        if (!loadPairGrid(ledger, fig, grid, entries, loadError)) {
            // Keep going: the drift section names an unreadable node
            // against a baseline, and the status says the report is
            // incomplete either way.
            md << "Cannot render: " << loadError << "\n\n";
            if (figureError.empty())
                figureError = loadError;
            continue;
        }
        if (fig.kind == "fig11") {
            md << "```\n" << renderFig11(fig.sizes, grid) << "```\n\n";
        } else if (fig.kind == "fig10") {
            // A row outside the four suites would drop out of every
            // per-suite table.
            const auto &suites = workloads::suiteNames();
            for (const auto &[name, suite] : fig.workloads) {
                if (std::find(suites.begin(), suites.end(), suite) ==
                    suites.end()) {
                    error = "campaign sidecar: figure '" + fig.name +
                            "': workload '" + name + "' has unknown suite '" +
                            suite + "'";
                    return 2;
                }
            }
            md << "```\n" << renderFig10(fig.workloads, fig.sizes, grid)
               << "```\n\n";
        } else {
            error = "figure '" + fig.name + "': unknown kind '" +
                    fig.kind + "'";
            return 2;
        }
        md << "### Stall attribution\n\n"
           << "```\n" << renderStallTable(entries) << "```\n\n";
    }

    md << "## Phase profile\n\n";
    if (!phases->empty()) {
        stats::TextTable t({"phase", "count", "seconds", "p50 us",
                            "p95 us", "max us"});
        // Every member of a row is required.
        for (std::size_t i = 0; i < phases->size(); ++i) {
            const Value &p = (*phases)[i];
            const std::string at = "phases[" + std::to_string(i) + "].";
            std::string path;
            std::uint64_t count = 0;
            double seconds = 0, p50 = 0, p95 = 0, max = 0;
            if (!sidecarMember(p, at, "path", true, path, error) ||
                !sidecarMember(p, at, "count", true, count, error) ||
                !sidecarMember(p, at, "seconds", true, seconds, error) ||
                !sidecarMember(p, at, "p50_us", true, p50, error) ||
                !sidecarMember(p, at, "p95_us", true, p95, error) ||
                !sidecarMember(p, at, "max_us", true, max, error))
                return 2;
            t.row().cell(path).cell(count).cell(seconds, 3);
            t.cell(p50, 1).cell(p95, 1).cell(max, 1);
        }
        std::ostringstream os;
        t.print(os, "Host phase profile (wall clock; sidecar data, "
                    "not part of the ledger nodes)");
        md << "```\n" << os.str() << "```\n\n";
    } else {
        md << "Not recorded — run `rrs-campaign` under `RRS_PROF=1` to "
              "capture the host-side phase breakdown.\n\n";
    }

    int status = 0;
    if (!opts.baselineDir.empty()) {
        const LedgerDiff d = diffLedgers(baseline, ledger);
        md << "## Drift vs baseline ledger\n\n"
           << "```\n" << renderDriftSection(baseline, d) << "```\n\n"
           << "## Host cost vs baseline\n\n```\n";
        status = renderHostCostSection(
            baseline, nodes, sweep, d.onlyBase.empty() && d.onlyCur.empty(),
            opts.throughputThresholdPct, md, error);
        md << "```\n";
        if (status == 0 && !d.clean())
            status = 1;
    }
    if (status == 0 && !figureError.empty()) {
        error = figureError;
        status = 2;
    }

    if (!opts.html) {
        out = md.str();
        return status;
    }
    std::ostringstream html;
    html << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
         << "<title>Campaign report: " << htmlEscape(name)
         << "</title>\n"
         << "<style>body{font-family:monospace;max-width:110ch;"
         << "margin:2em auto;white-space:pre-wrap;}</style>\n"
         << "</head><body>\n"
         << htmlEscape(md.str()) << "</body></html>\n";
    out = html.str();
    return status;
}

} // namespace rrs::harness

#include "report.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "area/area.hh"
#include "harness/campaign.hh"
#include "harness/figures.hh"
#include "obs/jsonlite.hh"
#include "obs/stallcause.hh"
#include "stats/table.hh"

namespace rrs::harness {

namespace {

using obs::json::Value;

/** One figure descriptor out of the campaign.json sidecar. */
struct FigureDesc
{
    std::string name;
    std::string kind;
    std::vector<std::uint32_t> sizes;
    std::vector<std::string> schemeLabels;
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
            grid[wi][si].base = outcomeFromEntry(base);
            grid[wi][si].prop = outcomeFromEntry(prop);
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
            const std::uint64_t cycles = e.stalls.sum();
            t.row()
                .cell(shortDigest(digestHex(nodeDigest(e.spec))))
                .cell(e.spec.workload)
                .cell(e.spec.label)
                .cell(e.spec.regs)
                .cell(e.run.cycles);
            for (int c = 0; c < obs::numCycleCauses; ++c)
                t.cell(pct(e.stalls.counts[c], cycles), 1);
        }
    }
    std::ostringstream os;
    t.print(os, "Per-node cycle attribution (percent of attributed "
                "cycles; one cause per cycle)");
    return os.str();
}

/** The drift section against a baseline ledger. */
std::string
renderDriftSection(const Ledger &baseline, const Ledger &cur)
{
    std::ostringstream os;
    const LedgerDiff d = diffLedgers(baseline, cur);
    os << "Baseline: " << baseline.directory() << "\n\n";
    if (d.clean()) {
        os << "No drift: every shared node matches (exact nodes "
              "byte-identical, sampled nodes within CI overlap), and "
              "the node sets are equal.\n";
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

Outcome
outcomeFromEntry(const LedgerEntry &e)
{
    Outcome o;
    o.sim.committedInsts = e.run.insts;
    o.sim.cycles = e.run.cycles;
    o.sampled = e.run.sampled;
    o.stalls = e.stalls;
    o.allocations = e.allocations;
    o.reuses = e.reuses;
    o.repairs = e.repairs;
    o.renameStalls = e.renameStalls;
    return o;
}

bool
tryRenderCampaignReport(const Ledger &ledger, const ReportOptions &opts,
                        std::string &out, std::string &error)
{
    const std::string sidecarPath = ledger.directory() + "/campaign.json";
    std::ifstream in(sidecarPath, std::ios::binary);
    if (!in) {
        error = "no campaign sidecar at " + sidecarPath +
                " (run rrs-campaign first)";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Value doc;
    if (!obs::json::parse(text.str(), doc, &error)) {
        error = sidecarPath + ": " + error;
        return false;
    }
    const Value *schema = doc.find("campaign_schema");
    if (!schema || static_cast<int>(schema->num) != campaignSchemaVersion) {
        error = sidecarPath + ": missing or unsupported campaign_schema";
        return false;
    }

    std::vector<FigureDesc> figures;
    if (const Value *figs = doc.find("figures")) {
        for (const auto &f : figs->arr) {
            FigureDesc fd;
            if (const auto *v = f.find("figure"))
                fd.name = v->str;
            if (const auto *v = f.find("kind"))
                fd.kind = v->str;
            if (const auto *v = f.find("sizes")) {
                for (const auto &e : v->arr)
                    fd.sizes.push_back(
                        static_cast<std::uint32_t>(e.num));
            }
            if (const auto *v = f.find("scheme_labels")) {
                for (const auto &e : v->arr)
                    fd.schemeLabels.push_back(e.str);
            }
            if (const auto *v = f.find("workloads")) {
                for (const auto &e : v->arr) {
                    fd.workloads.emplace_back(e.at("name").str,
                                              e.at("suite").str);
                }
            }
            if (const auto *v = f.find("nodes")) {
                for (const auto &e : v->arr)
                    fd.nodes.push_back(e.str);
            }
            figures.push_back(std::move(fd));
        }
    }

    std::ostringstream md;
    auto str = [&doc](const char *key) {
        const Value *v = doc.find(key);
        return v ? v->str : std::string();
    };
    auto count = [&doc](const char *key) -> std::uint64_t {
        const Value *v = doc.find(key);
        return v ? static_cast<std::uint64_t>(v->num) : 0;
    };
    md << "# Campaign report: " << str("name") << "\n\n"
       << "- git sha: `" << str("git_sha") << "`\n"
       << "- nodes: " << count("nodes_total") << " total, "
       << count("nodes_cached") << " cached, "
       << count("nodes_simulated") << " simulated, "
       << count("nodes_deferred") << " deferred\n";
    // threads is 0 when the last run was fully cached (no sweep ran).
    if (count("threads"))
        md << "- last run: " << count("threads") << " thread(s)\n";
    md << "\n";

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
        if (!loadPairGrid(ledger, fig, grid, entries, error))
            return false;
        if (fig.kind == "fig11") {
            md << "```\n" << renderFig11(fig.sizes, grid) << "```\n\n";
        } else if (fig.kind == "fig10") {
            std::vector<workloads::Workload> ws;
            for (const auto &[name, suite] : fig.workloads)
                ws.push_back(workloads::workload(name));
            md << "```\n" << renderFig10(ws, fig.sizes, grid)
               << "```\n\n";
        } else {
            error = "figure '" + fig.name + "': unknown kind '" +
                    fig.kind + "'";
            return false;
        }
        md << "### Stall attribution\n\n"
           << "```\n" << renderStallTable(entries) << "```\n\n";
    }

    md << "## Phase profile\n\n";
    const Value *phases = doc.find("phases");
    if (phases && !phases->arr.empty()) {
        stats::TextTable t({"phase", "count", "seconds", "p50 us",
                            "p95 us", "max us"});
        for (const auto &p : phases->arr) {
            t.row()
                .cell(p.at("path").str)
                .cell(static_cast<std::uint64_t>(p.at("count").num))
                .cell(p.at("seconds").num, 3)
                .cell(p.at("p50_us").num, 1)
                .cell(p.at("p95_us").num, 1)
                .cell(p.at("max_us").num, 1);
        }
        std::ostringstream os;
        t.print(os, "Host phase profile (wall clock; sidecar data, "
                    "not part of the ledger nodes)");
        md << "```\n" << os.str() << "```\n\n";
    } else {
        md << "Not recorded — run `rrs-campaign` under `RRS_PROF=1` to "
              "capture the host-side phase breakdown.\n\n";
    }

    if (!opts.baselineDir.empty()) {
        md << "## Drift vs baseline ledger\n\n"
           << "```\n"
           << renderDriftSection(Ledger(opts.baselineDir), ledger)
           << "```\n";
    }

    if (!opts.html) {
        out = md.str();
        return true;
    }
    std::ostringstream html;
    html << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
         << "<title>Campaign report: " << htmlEscape(str("name"))
         << "</title>\n"
         << "<style>body{font-family:monospace;max-width:110ch;"
         << "margin:2em auto;white-space:pre-wrap;}</style>\n"
         << "</head><body>\n"
         << htmlEscape(md.str()) << "</body></html>\n";
    out = html.str();
    return true;
}

} // namespace rrs::harness

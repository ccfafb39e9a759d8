#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/atomicfile.hh"
#include "obs/jsonlite.hh"
#include "obs/stallcause.hh"
#include "stats/stats.hh"
#include "trace/fnv.hh"

namespace rrs::harness {

namespace {

using obs::json::Value;
using stats::jsonNumber;
using stats::jsonQuoted;

/**
 * Read member `key` of a node object as the writer emits it
 * (obs::json::readMember); every member is required.
 */
template <typename T>
bool
readField(const Value &obj, const char *key, T &out, std::string &error)
{
    return obs::json::readMember(
        obj, key, std::string("ledger entry: '") + key + "'", true, out,
        error);
}

/**
 * Every result a node stores, in file order: the JSON object it sits
 * in, its name there, and the Outcome member that holds it.  Rendering,
 * parsing and diffing all walk this one list, so storing a new result
 * is one Outcome member plus one line here.  `visit(object, name,
 * member...)` receives that member of each outcome passed.
 */
template <typename Visit, typename... O>
void
forEachResult(Visit &&visit, O &...o)
{
    visit("run", "insts", o.sim.committedInsts...);
    visit("run", "cycles", o.sim.cycles...);
    visit("sampled", "windows", o.sampled.windows...);
    visit("sampled", "mean_ipc", o.sampled.meanIpc...);
    visit("sampled", "stddev_ipc", o.sampled.stddevIpc...);
    visit("sampled", "ci95_ipc", o.sampled.ci95Ipc...);
    visit("sampled", "median_ipc", o.sampled.medianIpc...);
    visit("sampled", "detailed_insts", o.sampled.detailedInsts...);
    visit("sampled", "detailed_cycles", o.sampled.detailedCycles...);
    visit("sampled", "warm_insts", o.sampled.warmInsts...);
    visit("sampled", "skipped_insts", o.sampled.skippedInsts...);
    for (int i = 0; i < obs::numCycleCauses; ++i) {
        visit("stalls", obs::cycleCauseName(static_cast<obs::CycleCause>(i)),
              o.stalls.counts[i]...);
    }
    visit("rename", "allocations", o.allocations...);
    visit("rename", "reuses", o.reuses...);
    visit("rename", "repairs", o.repairs...);
    visit("rename", "rename_stalls", o.renameStalls...);
}

/** A stored result as its JSON text. */
template <typename T>
std::string
resultText(T v)
{
    if constexpr (std::is_integral_v<T>)
        return std::to_string(v);
    else
        return jsonNumber(v);
}

/** The `"name": value` members of one object of the field list. */
std::string
renderResults(const Outcome &o, std::string_view object)
{
    std::string out;
    forEachResult(
        [&](std::string_view in, const char *name, auto v) {
            if (in != object)
                return;
            out += (out.empty() ? "" : ", ") + jsonQuoted(name) + ": " +
                   resultText(v);
        },
        o);
    return out;
}

/**
 * 64-bit values (hashes, seeds) travel as 16-hex-char strings: JSON
 * numbers are doubles, which silently round anything past 2^53.
 */
bool
parseHex64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    out = v;
    return true;
}

/**
 * Two sampled estimates agree when their means lie within the sum of
 * their 95% CIs; anything further apart is an estimator or schedule
 * change, not window-boundary noise.
 */
bool
sampledCiOverlap(const SampledSummary &a, const SampledSummary &b)
{
    return std::fabs(a.meanIpc - b.meanIpc) <= a.ci95Ipc + b.ci95Ipc;
}

} // namespace

std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::string
nodeKey(const NodeSpec &spec)
{
    std::ostringstream key;
    // "bench=2" names the run-row layout the nodes were first stored
    // in; it stays literal so that no digest changes.
    key << "ledger=" << ledgerSchemaVersion << ";bench=2;w=" << spec.workload
        << ";src=" << digestHex(spec.sourceHash)
        << ";suite=" << spec.suite << ";scheme=" << spec.scheme
        << ";regs=" << spec.regs << ";cap=" << spec.cap << ";params=";
    bool first = true;
    for (const auto &[k, v] : spec.params) {
        key << (first ? "" : ",") << k << ":" << jsonNumber(v);
        first = false;
    }
    key << ";sampling=" << spec.sampling.warm << ":"
        << spec.sampling.detailed << ":" << spec.sampling.period << ":"
        << spec.sampling.fillInsts << ":"
        << jsonNumber(spec.sampling.ciFloorPct)
        << ";seed=" << digestHex(spec.seed);
    return key.str();
}

std::uint64_t
nodeDigest(const NodeSpec &spec)
{
    return trace::fnv::hashBytes(nodeKey(spec));
}

std::string
renderLedgerEntryJson(const LedgerEntry &e)
{
    const Outcome &o = e.outcome;
    std::ostringstream os;
    os << "{\n"
       << "  \"ledger_schema\": " << ledgerSchemaVersion << ",\n"
       << "  \"digest\": " << jsonQuoted(digestHex(nodeDigest(e.spec)))
       << ",\n"
       << "  \"key\": " << jsonQuoted(nodeKey(e.spec)) << ",\n"
       << "  \"node\": {\n"
       << "    \"workload\": " << jsonQuoted(e.spec.workload) << ",\n"
       << "    \"suite\": " << jsonQuoted(e.spec.suite) << ",\n"
       << "    \"source_hash\": " << jsonQuoted(digestHex(e.spec.sourceHash))
       << ",\n"
       << "    \"scheme\": " << jsonQuoted(e.spec.scheme) << ",\n"
       << "    \"label\": " << jsonQuoted(e.spec.label) << ",\n"
       << "    \"params\": {";
    bool first = true;
    for (const auto &[k, v] : e.spec.params) {
        os << (first ? "" : ", ") << jsonQuoted(k) << ": " << jsonNumber(v);
        first = false;
    }
    os << "},\n"
       << "    \"regs\": " << e.spec.regs << ",\n"
       << "    \"cap\": " << e.spec.cap << ",\n"
       << "    \"sampling\": {\"warm\": " << e.spec.sampling.warm
       << ", \"detailed\": " << e.spec.sampling.detailed
       << ", \"period\": " << e.spec.sampling.period
       << ", \"fill\": " << e.spec.sampling.fillInsts
       << ", \"ci_floor_pct\": " << jsonNumber(e.spec.sampling.ciFloorPct)
       << "},\n"
       << "    \"seed\": " << jsonQuoted(digestHex(e.spec.seed)) << "\n"
       << "  },\n"
       << "  \"run\": {\"workload\": " << jsonQuoted(e.spec.workload)
       << ", \"scheme\": " << jsonQuoted(e.spec.scheme) << ", "
       << renderResults(o, "run")
       << ", \"ipc\": " << jsonNumber(o.sim.ipc())
       << ", \"wall_seconds\": 0";
    // A sampled node's run row carries its estimate (parse requires it).
    if (e.spec.sampling.enabled())
        os << ", \"sampled\": {" << renderResults(o, "sampled") << "}";
    os << "},\n"
       << "  \"stalls\": {" << renderResults(o, "stalls") << "},\n"
       << "  \"rename\": {" << renderResults(o, "rename") << "}\n"
       << "}\n";
    return os.str();
}

bool
parseLedgerEntryJson(const std::string &text, LedgerEntry &out,
                     std::string &error)
{
    Value doc;
    if (!obs::json::parse(text, doc, &error))
        return false;
    if (!doc.isObject()) {
        error = "ledger entry: root must be an object";
        return false;
    }
    const Value *schema = doc.find("ledger_schema");
    std::uint64_t version = 0;
    std::string schemaError;
    if (!schema ||
        !obs::json::readInteger(*schema, ledgerSchemaVersion,
                                ledgerSchemaVersion, "ledger_schema",
                                version, schemaError)) {
        error = "ledger entry: missing or unsupported ledger_schema "
                "(expected " + std::to_string(ledgerSchemaVersion) + ")";
        return false;
    }

    LedgerEntry e;
    NodeSpec &spec = e.spec;
    std::string digest, key, sourceHash, seed, runWorkload, runScheme;
    double ipc = 0, wallSeconds = 0;
    const Value *node = nullptr, *params = nullptr, *sampling = nullptr,
                *run = nullptr, *stalls = nullptr, *rename = nullptr;
    if (!readField(doc, "digest", digest, error) ||
        !readField(doc, "key", key, error) ||
        !readField(doc, "node", node, error) ||
        !readField(*node, "workload", spec.workload, error) ||
        !readField(*node, "suite", spec.suite, error) ||
        !readField(*node, "source_hash", sourceHash, error) ||
        !readField(*node, "scheme", spec.scheme, error) ||
        !readField(*node, "label", spec.label, error) ||
        !readField(*node, "params", params, error) ||
        !readField(*node, "regs", spec.regs, error) ||
        !readField(*node, "cap", spec.cap, error) ||
        !readField(*node, "sampling", sampling, error) ||
        !readField(*sampling, "warm", spec.sampling.warm, error) ||
        !readField(*sampling, "detailed", spec.sampling.detailed, error) ||
        !readField(*sampling, "period", spec.sampling.period, error) ||
        !readField(*sampling, "fill", spec.sampling.fillInsts, error) ||
        !readField(*sampling, "ci_floor_pct", spec.sampling.ciFloorPct,
                   error) ||
        !readField(*node, "seed", seed, error) ||
        !readField(doc, "run", run, error) ||
        !readField(*run, "workload", runWorkload, error) ||
        !readField(*run, "scheme", runScheme, error) ||
        !readField(*run, "ipc", ipc, error) ||
        !readField(*run, "wall_seconds", wallSeconds, error) ||
        !readField(doc, "stalls", stalls, error) ||
        !readField(doc, "rename", rename, error))
        return false;
    if (!parseHex64(sourceHash, spec.sourceHash)) {
        error = "ledger entry: bad source_hash";
        return false;
    }
    if (!parseHex64(seed, spec.seed)) {
        error = "ledger entry: bad seed";
        return false;
    }
    for (const auto &[k, pv] : params->members) {
        double v = 0;
        if (!readField(*params, k.c_str(), v, error))
            return false;
        spec.params.emplace_back(k, v);
    }

    // The stored digest and key must match the spec just parsed: a
    // mismatch means the file was hand-edited or the key grammar
    // changed without a schema bump, and trusting it would poison
    // every consumer.
    if (digest != digestHex(nodeDigest(spec)) || key != nodeKey(spec)) {
        error = "ledger entry: digest or key does not match its node "
                "spec (corrupt or hand-edited entry)";
        return false;
    }
    // The run row repeats the node's identity and carries no host
    // data; neither has anywhere else to go.
    if (runWorkload != spec.workload || runScheme != spec.scheme) {
        error = "ledger entry: the run row's workload or scheme disagrees "
                "with the node";
        return false;
    }
    if (wallSeconds != 0) {
        error = "ledger entry: 'wall_seconds' must be 0 (a node stores "
                "no host time)";
        return false;
    }
    // A sampled node's run row carries its estimate; an exact node's
    // does not.
    Outcome &o = e.outcome;
    o.sampled.enabled = spec.sampling.enabled();
    const Value *sampled = nullptr;
    if (o.sampled.enabled && !readField(*run, "sampled", sampled, error))
        return false;
    if (!o.sampled.enabled && run->find("sampled")) {
        error = "ledger entry: an exact node's run row carries 'sampled'";
        return false;
    }

    bool ok = true;
    forEachResult(
        [&](std::string_view in, const char *name, auto &v) {
            const Value *obj = in == "run"       ? run
                               : in == "sampled" ? sampled
                               : in == "stalls"  ? stalls
                                                 : rename;
            if (ok && obj)
                ok = readField(*obj, name, v, error);
        },
        o);
    if (!ok)
        return false;
    // Every figure divides by cycles and takes a geomean of IPCs.
    if (o.sim.committedInsts == 0 || o.sim.cycles == 0) {
        error = std::string("ledger entry: '") +
                (o.sim.committedInsts == 0 ? "insts" : "cycles") +
                "' must be positive";
        return false;
    }
    if (ipc != o.sim.ipc()) {
        error = "ledger entry: 'ipc' is not insts / cycles";
        return false;
    }
    out = std::move(e);
    return true;
}

bool
Ledger::has(const std::string &hex) const
{
    std::error_code ec;
    return std::filesystem::exists(nodePath(hex), ec);
}

bool
Ledger::tryLoad(const std::string &hex, LedgerEntry &out,
                std::string &error) const
{
    std::string text;
    if (!tryReadFile(nodePath(hex), text)) {
        error = "cannot open ledger node " + nodePath(hex);
        return false;
    }
    if (!parseLedgerEntryJson(text, out, error)) {
        error = nodePath(hex) + ": " + error;
        return false;
    }
    return true;
}

bool
Ledger::store(const std::string &hex, const LedgerEntry &e,
              std::string &error) const
{
    return tryWriteFileAtomic(nodePath(hex), renderLedgerEntryJson(e),
                              error);
}

std::vector<std::string>
Ledger::listNodes() const
{
    std::vector<std::string> out;
    std::error_code ec;
    std::filesystem::directory_iterator it(nodesDir(), ec);
    if (ec)
        return out;
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        if (name.size() == 21 &&
            name.compare(name.size() - 5, 5, ".json") == 0)
            out.push_back(name.substr(0, 16));
    }
    std::sort(out.begin(), out.end());
    return out;
}

LedgerDiff
diffLedgers(const Ledger &base, const Ledger &cur)
{
    LedgerDiff d;
    const std::vector<std::string> baseNodes = base.listNodes();
    const std::vector<std::string> curNodes = cur.listNodes();
    std::vector<std::string> shared;
    std::set_difference(baseNodes.begin(), baseNodes.end(),
                        curNodes.begin(), curNodes.end(),
                        std::back_inserter(d.onlyBase));
    std::set_difference(curNodes.begin(), curNodes.end(),
                        baseNodes.begin(), baseNodes.end(),
                        std::back_inserter(d.onlyCur));
    std::set_intersection(baseNodes.begin(), baseNodes.end(),
                          curNodes.begin(), curNodes.end(),
                          std::back_inserter(shared));

    for (const std::string &hex : shared) {
        LedgerEntry b, c;
        std::string error;
        if (!base.tryLoad(hex, b, error)) {
            d.drift.push_back({hex, "?", "?", 0, "unreadable-base",
                               error, ""});
            continue;
        }
        if (!cur.tryLoad(hex, c, error)) {
            d.drift.push_back({hex, b.spec.workload, b.spec.label,
                               b.spec.regs, "unreadable-cur", "", error});
            continue;
        }
        auto row = [&](const std::string &metric,
                       const std::string &baseVal,
                       const std::string &curVal) {
            d.drift.push_back({hex, b.spec.workload, b.spec.label,
                               b.spec.regs, metric, baseVal, curVal});
        };
        if (b.outcome.sampled.enabled) {
            // Same digest, so both ran the same sampling schedule;
            // gate the estimates on CI overlap.
            const SampledSummary &bs = b.outcome.sampled;
            const SampledSummary &cs = c.outcome.sampled;
            if (!sampledCiOverlap(bs, cs))
                row("mean_ipc", jsonNumber(bs.meanIpc),
                    jsonNumber(cs.meanIpc));
            continue;
        }
        forEachResult(
            [&](std::string_view in, const char *name, auto bv, auto cv) {
                if (bv != cv)
                    row((in == "stalls" ? "stall." : "") + std::string(name),
                        resultText(bv), resultText(cv));
            },
            b.outcome, c.outcome);
    }
    return d;
}

} // namespace rrs::harness

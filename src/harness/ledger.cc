#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/atomicfile.hh"
#include "harness/sweepmatrix.hh"
#include "obs/jsonlite.hh"
#include "obs/stallcause.hh"
#include "stats/stats.hh"

namespace rrs::harness {

namespace {

using stats::jsonNumber;
using stats::jsonQuoted;

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = fnvOffset;
    for (unsigned char c : s) {
        h ^= c;
        h *= fnvPrime;
    }
    return h;
}

using obs::json::Value;

// Node fields are read as written or refused.  Each reader leaves
// `out` alone when `obj` has no member `key`, and returns false with
// `error` set when the member is of the wrong JSON type or, for a
// count, not a whole number in the range of `out`'s type
// (readJsonInteger).

/** A count; a double `out` holds a count Outcome keeps as double. */
template <typename T>
bool
readCount(const Value &obj, const char *key, T &out, std::string &error)
{
    const Value *v = obj.find(key);
    if (!v)
        return true;
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
    if constexpr (std::is_integral_v<T>)
        hi = std::numeric_limits<T>::max();
    std::uint64_t n = 0;
    if (!readJsonInteger(*v, 0, hi,
                         std::string("ledger entry: '") + key + "'", n,
                         error))
        return false;
    out = static_cast<T>(n);
    return true;
}

bool
readNumber(const Value &obj, const char *key, double &out,
           std::string &error)
{
    const Value *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isNumber()) {
        error = std::string("ledger entry: '") + key + "' must be a number";
        return false;
    }
    out = v->num;
    return true;
}

bool
readString(const Value &obj, const char *key, std::string &out,
           std::string &error)
{
    const Value *v = obj.find(key);
    if (!v)
        return true;
    if (!v->isString()) {
        error = std::string("ledger entry: '") + key + "' must be a string";
        return false;
    }
    out = v->str;
    return true;
}

/** An optional member that must be an object when present. */
bool
readObject(const Value &obj, const char *key, const Value *&out,
           std::string &error)
{
    out = obj.find(key);
    if (out && !out->isObject()) {
        error = std::string("ledger entry: '") + key +
                "' must be an object";
        return false;
    }
    return true;
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

/** The "run" object of a node file. */
std::string
renderRunRecordJson(const RunRecord &run)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonQuoted(run.workload) << ", \"scheme\": "
       << jsonQuoted(run.scheme) << ", \"insts\": " << run.insts
       << ", \"cycles\": " << run.cycles
       << ", \"ipc\": " << jsonNumber(run.ipc())
       << ", \"wall_seconds\": " << jsonNumber(run.wallSeconds);
    if (run.sampled.enabled) {
        const SampledSummary &sm = run.sampled;
        os << ", \"sampled\": {\"windows\": " << sm.windows
           << ", \"mean_ipc\": " << jsonNumber(sm.meanIpc)
           << ", \"stddev_ipc\": " << jsonNumber(sm.stddevIpc)
           << ", \"ci95_ipc\": " << jsonNumber(sm.ci95Ipc)
           << ", \"median_ipc\": " << jsonNumber(sm.medianIpc)
           << ", \"detailed_insts\": " << sm.detailedInsts
           << ", \"detailed_cycles\": " << sm.detailedCycles
           << ", \"warm_insts\": " << sm.warmInsts
           << ", \"skipped_insts\": " << sm.skippedInsts << "}";
    }
    os << "}";
    return os.str();
}

bool
parseRunRecordJson(const Value &e, RunRecord &run, std::string &error)
{
    const Value *sampled = nullptr;
    if (!readString(e, "workload", run.workload, error) ||
        !readString(e, "scheme", run.scheme, error) ||
        !readCount(e, "insts", run.insts, error) ||
        !readCount(e, "cycles", run.cycles, error) ||
        !readNumber(e, "wall_seconds", run.wallSeconds, error) ||
        !readObject(e, "sampled", sampled, error))
        return false;
    if (!sampled)
        return true;
    SampledSummary &sm = run.sampled;
    sm.enabled = true;
    return readCount(*sampled, "windows", sm.windows, error) &&
           readNumber(*sampled, "mean_ipc", sm.meanIpc, error) &&
           readNumber(*sampled, "stddev_ipc", sm.stddevIpc, error) &&
           readNumber(*sampled, "ci95_ipc", sm.ci95Ipc, error) &&
           readNumber(*sampled, "median_ipc", sm.medianIpc, error) &&
           readCount(*sampled, "detailed_insts", sm.detailedInsts, error) &&
           readCount(*sampled, "detailed_cycles", sm.detailedCycles,
                     error) &&
           readCount(*sampled, "warm_insts", sm.warmInsts, error) &&
           readCount(*sampled, "skipped_insts", sm.skippedInsts, error);
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
    return fnv1a(nodeKey(spec));
}

LedgerEntry
makeLedgerEntry(NodeSpec spec, const Outcome &outcome)
{
    LedgerEntry e;
    e.run.workload = spec.workload;
    e.run.scheme = spec.scheme;
    e.run.insts = outcome.sim.committedInsts;
    e.run.cycles = outcome.sim.cycles;
    e.run.wallSeconds = 0;       // host data never enters a node file
    e.run.sampled = outcome.sampled;
    e.stalls = outcome.stalls;
    e.allocations = outcome.allocations;
    e.reuses = outcome.reuses;
    e.repairs = outcome.repairs;
    e.renameStalls = outcome.renameStalls;
    e.spec = std::move(spec);
    return e;
}

std::string
renderLedgerEntryJson(const LedgerEntry &e)
{
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
       << "  \"run\": " << renderRunRecordJson(e.run) << ",\n"
       << "  \"stalls\": {";
    for (int i = 0; i < obs::numCycleCauses; ++i) {
        os << (i ? ", " : "")
           << jsonQuoted(obs::cycleCauseName(
                  static_cast<obs::CycleCause>(i)))
           << ": " << e.stalls.counts[i];
    }
    os << "},\n"
       << "  \"rename\": {\"allocations\": " << jsonNumber(e.allocations)
       << ", \"reuses\": " << jsonNumber(e.reuses) << ", \"repairs\": "
       << jsonNumber(e.repairs) << ", \"rename_stalls\": "
       << jsonNumber(e.renameStalls) << "}\n"
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
        !readJsonInteger(*schema, ledgerSchemaVersion, ledgerSchemaVersion,
                         "ledger_schema", version, schemaError)) {
        error = "ledger entry: missing or unsupported ledger_schema "
                "(expected " + std::to_string(ledgerSchemaVersion) + ")";
        return false;
    }
    const Value *node = doc.find("node");
    const Value *run = doc.find("run");
    if (!node || !node->isObject() || !run || !run->isObject()) {
        error = "ledger entry: missing node/run objects";
        return false;
    }

    LedgerEntry e;
    std::string sourceHash, seed, digest;
    const Value *params = nullptr, *sampling = nullptr, *stalls = nullptr,
                *rename = nullptr;
    if (!readString(*node, "workload", e.spec.workload, error) ||
        !readString(*node, "suite", e.spec.suite, error) ||
        !readString(*node, "source_hash", sourceHash, error) ||
        !readString(*node, "scheme", e.spec.scheme, error) ||
        !readString(*node, "label", e.spec.label, error) ||
        !readObject(*node, "params", params, error) ||
        !readCount(*node, "regs", e.spec.regs, error) ||
        !readCount(*node, "cap", e.spec.cap, error) ||
        !readObject(*node, "sampling", sampling, error) ||
        !readString(*node, "seed", seed, error) ||
        !readString(doc, "digest", digest, error) ||
        !readObject(doc, "stalls", stalls, error) ||
        !readObject(doc, "rename", rename, error))
        return false;
    if (node->find("source_hash") &&
        !parseHex64(sourceHash, e.spec.sourceHash)) {
        error = "ledger entry: bad source_hash";
        return false;
    }
    if (node->find("seed") && !parseHex64(seed, e.spec.seed)) {
        error = "ledger entry: bad seed";
        return false;
    }
    if (params) {
        for (const auto &[k, pv] : params->members) {
            double v = 0;
            if (!readNumber(*params, k.c_str(), v, error))
                return false;
            e.spec.params.emplace_back(k, v);
        }
    }
    if (sampling) {
        SamplingParams &sp = e.spec.sampling;
        if (!readCount(*sampling, "warm", sp.warm, error) ||
            !readCount(*sampling, "detailed", sp.detailed, error) ||
            !readCount(*sampling, "period", sp.period, error) ||
            !readCount(*sampling, "fill", sp.fillInsts, error) ||
            !readNumber(*sampling, "ci_floor_pct", sp.ciFloorPct, error))
            return false;
    }

    if (!parseRunRecordJson(*run, e.run, error))
        return false;

    if (stalls) {
        for (int i = 0; i < obs::numCycleCauses; ++i) {
            if (!readCount(*stalls,
                           obs::cycleCauseName(
                               static_cast<obs::CycleCause>(i)),
                           e.stalls.counts[i], error))
                return false;
        }
    }
    if (rename &&
        (!readCount(*rename, "allocations", e.allocations, error) ||
         !readCount(*rename, "reuses", e.reuses, error) ||
         !readCount(*rename, "repairs", e.repairs, error) ||
         !readCount(*rename, "rename_stalls", e.renameStalls, error)))
        return false;

    // The stored digest must match the spec we just parsed: a mismatch
    // means the file was hand-edited or the key grammar changed without
    // a schema bump, and trusting it would poison every consumer.
    if (doc.find("digest")) {
        if (digest != digestHex(nodeDigest(e.spec))) {
            error = "ledger entry: digest does not match its node spec "
                    "(corrupt or hand-edited entry)";
            return false;
        }
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
    std::ifstream in(nodePath(hex), std::ios::binary);
    if (!in) {
        error = "cannot open ledger node " + nodePath(hex);
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (!parseLedgerEntryJson(text.str(), out, error)) {
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

    auto u64 = [](std::uint64_t v) { return std::to_string(v); };
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
        if (b.run.sampled.enabled || c.run.sampled.enabled) {
            // Same digest, so the sampling schedule matched; gate the
            // estimates on CI overlap.
            if (b.run.sampled.enabled != c.run.sampled.enabled) {
                row("sampled", b.run.sampled.enabled ? "yes" : "no",
                    c.run.sampled.enabled ? "yes" : "no");
            } else if (!sampledCiOverlap(b.run.sampled, c.run.sampled)) {
                row("mean_ipc", jsonNumber(b.run.sampled.meanIpc),
                    jsonNumber(c.run.sampled.meanIpc));
            }
            continue;
        }
        if (b.run.insts != c.run.insts)
            row("insts", u64(b.run.insts), u64(c.run.insts));
        if (b.run.cycles != c.run.cycles)
            row("cycles", u64(b.run.cycles), u64(c.run.cycles));
        for (int i = 0; i < obs::numCycleCauses; ++i) {
            if (b.stalls.counts[i] != c.stalls.counts[i]) {
                row(std::string("stall.") +
                        obs::cycleCauseName(
                            static_cast<obs::CycleCause>(i)),
                    u64(b.stalls.counts[i]), u64(c.stalls.counts[i]));
            }
        }
        const std::pair<const char *, double LedgerEntry::*> counters[] = {
            {"allocations", &LedgerEntry::allocations},
            {"reuses", &LedgerEntry::reuses},
            {"repairs", &LedgerEntry::repairs},
            {"rename_stalls", &LedgerEntry::renameStalls},
        };
        for (const auto &[name, field] : counters) {
            if (b.*field != c.*field)
                row(name, jsonNumber(b.*field), jsonNumber(c.*field));
        }
    }
    return d;
}

} // namespace rrs::harness

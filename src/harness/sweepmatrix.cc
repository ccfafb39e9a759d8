#include "sweepmatrix.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "obs/jsonlite.hh"
#include "rename/scheme.hh"

namespace rrs::harness {

namespace {

using obs::json::checkNoDuplicateKeys;
using obs::json::readInteger;
using obs::json::Value;

/** The document label of every duplicate-key diagnostic. */
constexpr const char *doc = "sweep matrix";

constexpr std::uint64_t u32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t u64Max = std::numeric_limits<std::uint64_t>::max();

/**
 * Sampling lengths stop at INT64_MAX, as a `--sample` spec's do, so
 * warm + detailed cannot wrap.
 */
constexpr std::uint64_t sampleMax = std::numeric_limits<std::int64_t>::max();

/**
 * Read one declarative parameter of `scheme`: a key the scheme
 * publishes and a whole value in that key's range (a bool reads as 0
 * or 1 for the keys that are flags).  This is the config-parse-time
 * check that keeps an unknown key, or a value the renamer would
 * reject, from ever reaching a sweep worker.
 */
bool
parseParam(const rename::RenameScheme &scheme, const std::string &key,
           const Value &val, double &out, std::string &error)
{
    const std::vector<rename::SchemeParamRange> ranges =
        scheme.paramRanges();
    const auto range =
        std::find_if(ranges.begin(), ranges.end(),
                     [&](const auto &r) { return r.key == key; });
    if (range == ranges.end()) {
        std::string keys;
        for (const auto &r : ranges)
            keys += (keys.empty() ? "" : ", ") + r.key;
        error = "sweep matrix: scheme '" + scheme.name() +
                "' has no parameter '" + key + "' (keys: " + keys + ")";
        return false;
    }
    std::uint64_t n = 0;
    if (val.kind() == Value::Kind::Bool && range->min == 0 &&
        range->max == 1) {
        n = val.boolean;
    } else if (!readInteger(val, range->min, range->max,
                            "sweep matrix: parameter '" + key +
                                "' of scheme '" + scheme.name() + "'",
                            n, error)) {
        return false;
    }
    out = static_cast<double>(n);
    return true;
}

bool
parseSchemeSpec(const Value &v, SchemeSpec &spec, std::string &error)
{
    if (!v.isString() && !v.isObject()) {
        error = "sweep matrix: each scheme must be a registry name "
                "string or an object";
        return false;
    }
    if (v.isObject() && !checkNoDuplicateKeys(v, doc, "a scheme entry", error))
        return false;
    const Value *name = v.isString() ? &v : v.find("scheme");
    if (!name || !name->isString()) {
        error = "sweep matrix: scheme entries need a string "
                "'scheme' member";
        return false;
    }
    spec.scheme = name->str;

    // Resolve the scheme now: an unknown name is a parse-time error.
    const rename::RenameScheme *scheme =
        rename::findRenameScheme(spec.scheme);
    if (!scheme) {
        std::string known;
        for (const auto &n : rename::registeredRenameSchemes())
            known += (known.empty() ? "" : ", ") + n;
        error = "sweep matrix: unknown rename scheme '" + spec.scheme +
                "' (registered: " + known + ")";
        return false;
    }
    for (const auto &[key, val] : v.members) {
        if (key == "scheme") {
            continue;
        } else if (key == "label") {
            if (!val.isString()) {
                error = "sweep matrix: 'label' must be a string";
                return false;
            }
            spec.label = val.str;
        } else if (key == "params") {
            if (!val.isObject()) {
                error = "sweep matrix: 'params' must be an object "
                        "of name: number pairs";
                return false;
            }
            if (!checkNoDuplicateKeys(val, doc,
                                      "the params of scheme '" +
                                          spec.scheme + "'",
                                      error))
                return false;
            for (const auto &[pk, pv] : val.members) {
                double num = 0;
                if (!parseParam(*scheme, pk, pv, num, error))
                    return false;
                spec.params.emplace_back(pk, num);
            }
        } else {
            error = "sweep matrix: unknown scheme-entry key '" + key +
                    "' (expected scheme/label/params)";
            return false;
        }
    }
    if (spec.label.empty())
        spec.label = spec.scheme;
    return true;
}

} // namespace

bool
tryParseSweepMatrix(const std::string &text, SweepMatrix &out,
                    std::string &error)
{
    Value root;
    std::string jsonError;
    if (!obs::json::parse(text, root, &jsonError)) {
        error = "sweep matrix: " + jsonError;
        return false;
    }
    return tryParseSweepMatrix(root, out, error);
}

bool
tryParseSweepMatrix(const Value &root, SweepMatrix &out,
                    std::string &error)
{
    if (!root.isObject()) {
        error = "sweep matrix: the document root must be an object";
        return false;
    }
    // A matrix with two "rf_sizes" members is almost certainly a merge
    // accident, and silently taking one of them would skew the sweep.
    if (!checkNoDuplicateKeys(root, doc, "the matrix", error))
        return false;

    SweepMatrix m;
    bool sawSchemes = false, sawSizes = false;
    for (const auto &[key, val] : root.members) {
        if (key == "schemes") {
            sawSchemes = true;
            if (!val.isArray()) {
                error = "sweep matrix: 'schemes' must be an array";
                return false;
            }
            for (const auto &entry : val.arr) {
                SchemeSpec spec;
                if (!parseSchemeSpec(entry, spec, error))
                    return false;
                m.schemes.push_back(std::move(spec));
            }
        } else if (key == "rf_sizes") {
            sawSizes = true;
            if (!val.isArray()) {
                error = "sweep matrix: 'rf_sizes' must be an array";
                return false;
            }
            for (const auto &entry : val.arr) {
                std::uint64_t n = 0;
                if (!readInteger(entry, 1, u32Max,
                                 "sweep matrix: each 'rf_sizes' entry", n,
                                 error))
                    return false;
                m.rfSizes.push_back(static_cast<std::uint32_t>(n));
            }
        } else if (key == "cap") {
            if (!readInteger(val, 1, u64Max, "sweep matrix: 'cap'", m.cap,
                             error))
                return false;
        } else if (key == "sample_sharing") {
            if (val.kind() != Value::Kind::Bool) {
                error = "sweep matrix: 'sample_sharing' must be a bool";
                return false;
            }
            m.sampleSharing = val.boolean;
        } else if (key == "suite") {
            if (!val.isString()) {
                error = "sweep matrix: 'suite' must be a string";
                return false;
            }
            const auto &suites = workloads::suiteNames();
            if (std::find(suites.begin(), suites.end(), val.str) ==
                suites.end()) {
                error = "sweep matrix: unknown suite '" + val.str + "'";
                return false;
            }
            m.suite = val.str;
        } else if (key == "audit") {
            if (val.kind() != Value::Kind::Bool) {
                error = "sweep matrix: 'audit' must be a bool";
                return false;
            }
            m.audit = val.boolean;
        } else if (key == "sampling") {
            if (!val.isObject()) {
                error = "sweep matrix: 'sampling' must be an object "
                        "with warm/detailed/period members";
                return false;
            }
            if (!checkNoDuplicateKeys(val, doc, "the sampling block", error))
                return false;
            for (const auto &[sk, sv] : val.members) {
                const bool isWarm = sk == "warm";
                if (!isWarm && sk != "detailed" && sk != "period") {
                    error = "sweep matrix: unknown sampling key '" + sk +
                            "' (expected warm/detailed/period)";
                    return false;
                }
                // warm may be zero (no functional warming); detailed
                // and period must be positive for the mode to mean
                // anything.
                std::uint64_t n = 0;
                if (!readInteger(sv, isWarm ? 0 : 1, sampleMax,
                                 "sweep matrix: sampling '" + sk + "'", n,
                                 error))
                    return false;
                if (sk == "warm")
                    m.sampling.warm = n;
                else if (sk == "detailed")
                    m.sampling.detailed = n;
                else
                    m.sampling.period = n;
            }
            if (!m.sampling.enabled()) {
                error = "sweep matrix: 'sampling' needs positive "
                        "'detailed' and 'period' members";
                return false;
            }
            if (m.sampling.period <
                m.sampling.warm + m.sampling.detailed) {
                error = "sweep matrix: sampling 'period' must cover "
                        "warm + detailed";
                return false;
            }
        } else {
            error = "sweep matrix: unknown key '" + key +
                    "' (expected schemes/rf_sizes/cap/sample_sharing/"
                    "suite/audit/sampling)";
            return false;
        }
    }
    if (!sawSchemes || m.schemes.empty()) {
        error = "sweep matrix: 'schemes' must be a non-empty array";
        return false;
    }
    if (!sawSizes || m.rfSizes.empty()) {
        error = "sweep matrix: 'rf_sizes' must be a non-empty array";
        return false;
    }
    // Every column must leave each register class more physical
    // registers than logical ones at every size: with exactly
    // isa::numLogRegs, all are mapped at reset and the first register
    // write stalls forever.
    for (const SchemeSpec &spec : m.schemes) {
        const rename::RenameScheme &scheme =
            rename::renameScheme(spec.scheme);
        for (std::uint32_t n : m.rfSizes) {
            const rename::SchemeAreaDescriptor d =
                scheme.areaDescriptor(matrixConfig(spec, n, m, 0).rename);
            for (const auto &[cls, banks] :
                 {std::pair{"int", d.intBanks}, {"fp", d.fpBanks}}) {
                const std::uint64_t regs = std::accumulate(
                    banks.begin(), banks.end(), std::uint64_t{0});
                if (regs > isa::numLogRegs)
                    continue;
                error = "sweep matrix: scheme '" + spec.scheme + "'" +
                        (spec.label == spec.scheme
                             ? ""
                             : " (column '" + spec.label + "')") +
                        " at size " + std::to_string(n) + " has " +
                        std::to_string(regs) + " " + cls +
                        " registers; each class needs at least " +
                        std::to_string(isa::numLogRegs + 1) +
                        " (one per logical register, plus one to "
                        "rename into)";
                return false;
            }
        }
    }
    out = std::move(m);
    return true;
}

SweepMatrix
parseSweepMatrix(const std::string &text)
{
    SweepMatrix m;
    std::string error;
    if (!tryParseSweepMatrix(text, m, error))
        rrs_fatal("%s", error.c_str());
    return m;
}

SweepMatrix
loadSweepMatrixFile(const std::string &path)
{
    std::string text;
    if (!tryReadFile(path, text))
        rrs_fatal("cannot open sweep matrix file '%s'", path.c_str());
    SweepMatrix m;
    std::string error;
    if (!tryParseSweepMatrix(text, m, error))
        rrs_fatal("%s: %s", path.c_str(), error.c_str());
    return m;
}

RunConfig
matrixConfig(const SchemeSpec &spec, std::uint32_t baselineRegs,
             const SweepMatrix &m, std::uint64_t capDefault)
{
    RunConfig cfg = schemeConfig(spec.scheme, baselineRegs);
    const rename::RenameScheme &scheme =
        rename::renameScheme(spec.scheme);
    for (const auto &[key, val] : spec.params) {
        // Keys were dry-run at parse time; a failure here means the
        // spec was built by hand with a bad key.
        if (!scheme.setParam(cfg.rename, key, val))
            rrs_fatal("scheme '%s' has no parameter '%s'",
                      spec.scheme.c_str(), key.c_str());
    }
    cfg.maxInsts = m.cap > 0 ? m.cap : capDefault;
    cfg.obs.auditDisabled = !m.audit;
    cfg.sampling = m.sampling;
    return cfg;
}

std::vector<SweepItem>
expandSweepMatrix(const SweepMatrix &m,
                  const std::vector<workloads::Workload> &ws,
                  std::uint64_t capDefault)
{
    std::vector<SweepItem> items;
    items.reserve(ws.size() * m.rfSizes.size() * m.schemes.size());
    for (const auto &w : ws) {
        for (std::uint32_t n : m.rfSizes) {
            for (const auto &spec : m.schemes) {
                items.push_back(sweepItem(
                    w, matrixConfig(spec, n, m, capDefault),
                    m.sampleSharing));
            }
        }
    }
    return items;
}

} // namespace rrs::harness

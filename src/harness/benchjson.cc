#include "benchjson.hh"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "obs/jsonlite.hh"
#include "obs/profiler.hh"

namespace rrs::harness {

namespace {

#ifndef RRS_BUILD_TYPE
#define RRS_BUILD_TYPE "unknown"
#endif

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                out += buf;
            } else {
                out += ch;
            }
        }
    }
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    appendEscaped(out, s);
    out += "\"";
    return out;
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Human-facing significant-digit form for diff tables.  Never a
 * substr of the %.17g round-trip form: truncating "5.72e-06" at a
 * fixed width drops the exponent and prints a number a million times
 * too large.
 */
std::string
sigFig(double v, int digits)
{
    if (!std::isfinite(v))
        return "nan";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
    return buf;
}

/** Exact u64 from a jsonlite double (exact up to 2^53 — plenty). */
std::uint64_t
asU64(const obs::json::Value &v)
{
    return static_cast<std::uint64_t>(v.num);
}

/** Percent delta of `cur` vs `base`; 0 when the base is zero. */
double
pctDelta(double base, double cur)
{
    return base != 0 ? 100.0 * (cur - base) / base : 0.0;
}

/** Collect the merged per-run phase table from the profiler. */
void
collectPhases(const obs::PhaseNode &node, const std::string &prefix,
              std::vector<BenchResult::PhaseRow> &out)
{
    const obs::Profiler &prof = obs::Profiler::instance();
    for (const auto &c : node.children) {
        const std::string path =
            prefix.empty() ? c->name : prefix + "/" + c->name;
        BenchResult::PhaseRow row;
        row.path = path;
        row.count = c->count;
        row.seconds = c->seconds;
        row.p50Us = prof.runPercentileUs(path, 50);
        row.p95Us = prof.runPercentileUs(path, 95);
        row.maxUs = prof.runPercentileUs(path, 100);
        out.push_back(std::move(row));
        collectPhases(*c, path, out);
    }
}

/** One row of the diff table, ready for text or markdown layout. */
struct DiffRow
{
    std::string workload;
    std::string scheme;
    std::string metric;
    std::string baseVal;
    std::string curVal;
    std::string delta;
};

void
printDiffTable(std::ostream &os, const std::vector<DiffRow> &rows,
               bool markdown)
{
    if (markdown) {
        os << "| workload | scheme | metric | baseline | current "
           << "| delta |\n"
           << "|---|---|---|---:|---:|---:|\n";
        for (const auto &r : rows) {
            os << "| " << r.workload << " | " << r.scheme << " | "
               << r.metric << " | " << r.baseVal << " | " << r.curVal
               << " | " << r.delta << " |\n";
        }
        return;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-14s %-9s %-9s %14s %14s %12s\n",
                  "workload", "scheme", "metric", "baseline", "current",
                  "delta");
    os << buf;
    for (const auto &r : rows) {
        std::snprintf(buf, sizeof(buf),
                      "  %-14s %-9s %-9s %14s %14s %12s\n",
                      r.workload.c_str(), r.scheme.c_str(),
                      r.metric.c_str(), r.baseVal.c_str(),
                      r.curVal.c_str(), r.delta.c_str());
        os << buf;
    }
}

std::string
u64Str(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
signedDelta(std::uint64_t base, std::uint64_t cur)
{
    const long long d = static_cast<long long>(cur) -
                        static_cast<long long>(base);
    return (d >= 0 ? "+" : "") + std::to_string(d);
}

} // namespace

std::string
currentGitSha()
{
    if (const char *env = std::getenv("GITHUB_SHA"))
        return env;
    // Best effort outside CI; any failure degrades to "unknown".
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

BenchResult
collectBenchResult(const std::string &bench, const SweepRunner &runner)
{
    const SweepSummary &s = runner.summary();
    BenchResult r;
    r.bench = bench;
    r.gitSha = currentGitSha();
    r.buildType = RRS_BUILD_TYPE;
    r.threads = runner.numThreads();
    r.runs = runner.runRecords();
    r.instsTotal = s.instsCommitted;
    r.cyclesTotal = s.cyclesSimulated;
    r.wallSeconds = s.wallSeconds;
    r.runsPerSec = s.runsPerSec();
    r.minstPerSec = s.instsPerSec() / 1e6;
    r.traceHits = s.traceHits;
    r.traceMisses = s.traceMisses;
    r.instsCaptured = s.instsCaptured;
    r.instsReplayed = s.instsReplayed;
    r.footer = formatSweepFooter(s);
    {
        std::ostringstream schema;
        runner.dumpSchema(schema, 2);
        r.metricSchema = schema.str();
    }
    if (obs::Profiler::enabled())
        collectPhases(obs::Profiler::instance().runTree(), "", r.phases);
    return r;
}

std::string
renderRunRecordJson(const RunRecord &run)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonStr(run.workload) << ", \"scheme\": "
       << jsonStr(run.scheme) << ", \"insts\": " << run.insts
       << ", \"cycles\": " << run.cycles << ", \"ipc\": "
       << jsonNum(run.ipc()) << ", \"wall_seconds\": "
       << jsonNum(run.wallSeconds);
    if (run.sampled.enabled) {
        const SampledSummary &sm = run.sampled;
        os << ", \"sampled\": {\"windows\": " << sm.windows
           << ", \"mean_ipc\": " << jsonNum(sm.meanIpc)
           << ", \"stddev_ipc\": " << jsonNum(sm.stddevIpc)
           << ", \"ci95_ipc\": " << jsonNum(sm.ci95Ipc)
           << ", \"median_ipc\": " << jsonNum(sm.medianIpc)
           << ", \"detailed_insts\": " << sm.detailedInsts
           << ", \"detailed_cycles\": " << sm.detailedCycles
           << ", \"warm_insts\": " << sm.warmInsts
           << ", \"skipped_insts\": " << sm.skippedInsts << "}";
    }
    os << "}";
    return os.str();
}

void
parseRunRecordJson(const obs::json::Value &e, RunRecord &run)
{
    if (const auto *f = e.find("workload"))
        run.workload = f->str;
    if (const auto *f = e.find("scheme"))
        run.scheme = f->str;
    if (const auto *f = e.find("insts"))
        run.insts = asU64(*f);
    if (const auto *f = e.find("cycles"))
        run.cycles = asU64(*f);
    if (const auto *f = e.find("wall_seconds"))
        run.wallSeconds = f->num;
    if (const auto *f = e.find("sampled")) {
        run.sampled.enabled = true;
        if (const auto *s = f->find("windows"))
            run.sampled.windows = asU64(*s);
        if (const auto *s = f->find("mean_ipc"))
            run.sampled.meanIpc = s->num;
        if (const auto *s = f->find("stddev_ipc"))
            run.sampled.stddevIpc = s->num;
        if (const auto *s = f->find("ci95_ipc"))
            run.sampled.ci95Ipc = s->num;
        if (const auto *s = f->find("median_ipc"))
            run.sampled.medianIpc = s->num;
        if (const auto *s = f->find("detailed_insts"))
            run.sampled.detailedInsts = asU64(*s);
        if (const auto *s = f->find("detailed_cycles"))
            run.sampled.detailedCycles = asU64(*s);
        if (const auto *s = f->find("warm_insts"))
            run.sampled.warmInsts = asU64(*s);
        if (const auto *s = f->find("skipped_insts"))
            run.sampled.skippedInsts = asU64(*s);
    }
}

bool
sampledCiOverlap(const SampledSummary &a, const SampledSummary &b)
{
    return std::fabs(a.meanIpc - b.meanIpc) <= a.ci95Ipc + b.ci95Ipc;
}

std::string
renderBenchJson(const BenchResult &r)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema_version\": " << r.schemaVersion << ",\n"
       << "  \"bench\": " << jsonStr(r.bench) << ",\n"
       << "  \"git_sha\": " << jsonStr(r.gitSha) << ",\n"
       << "  \"build_type\": " << jsonStr(r.buildType) << ",\n"
       << "  \"threads\": " << r.threads << ",\n"
       << "  \"runs\": [";
    bool first = true;
    for (const auto &run : r.runs) {
        os << (first ? "\n" : ",\n") << "    "
           << renderRunRecordJson(run);
        first = false;
    }
    os << (first ? "" : "\n  ") << "],\n"
       << "  \"totals\": {\"insts\": " << r.instsTotal
       << ", \"cycles\": " << r.cyclesTotal << "},\n"
       << "  \"throughput\": {\"wall_seconds\": "
       << jsonNum(r.wallSeconds) << ", \"runs_per_sec\": "
       << jsonNum(r.runsPerSec) << ", \"minst_per_sec\": "
       << jsonNum(r.minstPerSec) << "},\n"
       << "  \"trace_cache\": {\"hits\": " << r.traceHits
       << ", \"misses\": " << r.traceMisses << ", \"captured_insts\": "
       << r.instsCaptured << ", \"replayed_insts\": " << r.instsReplayed
       << "},\n"
       << "  \"phases\": [";
    first = true;
    for (const auto &ph : r.phases) {
        os << (first ? "\n" : ",\n") << "    {\"path\": "
           << jsonStr(ph.path) << ", \"count\": " << ph.count
           << ", \"seconds\": " << jsonNum(ph.seconds)
           << ", \"p50_us\": " << jsonNum(ph.p50Us) << ", \"p95_us\": "
           << jsonNum(ph.p95Us) << ", \"max_us\": " << jsonNum(ph.maxUs)
           << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "],\n"
       << "  \"metric_schema\": "
       << (r.metricSchema.empty() ? "{}" : r.metricSchema) << ",\n"
       << "  \"footer\": " << jsonStr(r.footer) << "\n"
       << "}\n";
    return os.str();
}

std::string
benchJsonFileName(const std::string &bench)
{
    return "BENCH_" + bench + ".json";
}

bool
tryWriteBenchJson(const std::string &path, const BenchResult &r,
                  std::string &error)
{
    return tryWriteFileAtomic(path, renderBenchJson(r), error);
}

bool
loadBenchJson(const std::string &path, BenchResult &out,
              std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    obs::json::Value doc;
    if (!obs::json::parse(buf.str(), doc, &error)) {
        error = path + ": " + error;
        return false;
    }
    const obs::json::Value *ver = doc.find("schema_version");
    const obs::json::Value *bench = doc.find("bench");
    if (!ver || !ver->isNumber() || !bench || !bench->isString()) {
        error = path + ": not a BENCH_*.json (missing schema_version"
                "/bench)";
        return false;
    }
    out = BenchResult{};
    out.schemaVersion = static_cast<int>(ver->num);
    out.bench = bench->str;
    if (const auto *v = doc.find("git_sha"))
        out.gitSha = v->str;
    if (const auto *v = doc.find("build_type"))
        out.buildType = v->str;
    if (const auto *v = doc.find("threads"))
        out.threads = static_cast<unsigned>(v->num);
    if (const auto *v = doc.find("runs")) {
        for (const auto &e : v->arr) {
            RunRecord run;
            parseRunRecordJson(e, run);
            out.runs.push_back(std::move(run));
        }
    }
    if (const auto *v = doc.find("totals")) {
        if (const auto *f = v->find("insts"))
            out.instsTotal = asU64(*f);
        if (const auto *f = v->find("cycles"))
            out.cyclesTotal = asU64(*f);
    }
    if (const auto *v = doc.find("throughput")) {
        if (const auto *f = v->find("wall_seconds"))
            out.wallSeconds = f->num;
        if (const auto *f = v->find("runs_per_sec"))
            out.runsPerSec = f->num;
        if (const auto *f = v->find("minst_per_sec"))
            out.minstPerSec = f->num;
    }
    if (const auto *v = doc.find("trace_cache")) {
        if (const auto *f = v->find("hits"))
            out.traceHits = asU64(*f);
        if (const auto *f = v->find("misses"))
            out.traceMisses = asU64(*f);
        if (const auto *f = v->find("captured_insts"))
            out.instsCaptured = asU64(*f);
        if (const auto *f = v->find("replayed_insts"))
            out.instsReplayed = asU64(*f);
    }
    if (const auto *v = doc.find("phases")) {
        for (const auto &e : v->arr) {
            BenchResult::PhaseRow row;
            if (const auto *f = e.find("path"))
                row.path = f->str;
            if (const auto *f = e.find("count"))
                row.count = asU64(*f);
            if (const auto *f = e.find("seconds"))
                row.seconds = f->num;
            if (const auto *f = e.find("p50_us"))
                row.p50Us = f->num;
            if (const auto *f = e.find("p95_us"))
                row.p95Us = f->num;
            if (const auto *f = e.find("max_us"))
                row.maxUs = f->num;
            out.phases.push_back(std::move(row));
        }
    }
    if (const auto *v = doc.find("footer"))
        out.footer = v->str;
    return true;
}

BenchDiffReport
collectBenchDiff(const BenchResult &base, const BenchResult &cur,
                 const BenchDiffOptions &opts)
{
    BenchDiffReport r;
    r.bench = cur.bench;
    r.baseSha = base.gitSha;
    r.curSha = cur.gitSha;
    r.baseBuild = base.buildType;
    r.curBuild = cur.buildType;
    r.baseSchema = base.schemaVersion;
    r.curSchema = cur.schemaVersion;
    if (base.schemaVersion != cur.schemaVersion) {
        r.schemaMismatch = true;
        r.exitCode = 2;
        return r;
    }

    // Exact pass: the run lists must match row for row.
    r.baseRuns = base.runs.size();
    r.curRuns = cur.runs.size();
    if (base.runs.size() != cur.runs.size()) {
        r.runCountMismatch = true;
        r.exitCode = 1;
        return r;
    }
    for (std::size_t i = 0; i < base.runs.size(); ++i) {
        const RunRecord &b = base.runs[i];
        const RunRecord &c = cur.runs[i];
        if (b.workload != c.workload || b.scheme != c.scheme) {
            r.exactDrift.push_back(
                {b.workload + "->" + c.workload,
                 b.scheme + "->" + c.scheme, "row",
                 "run " + std::to_string(i), "", "reordered"});
            continue;
        }
        if (b.sampled.enabled || c.sampled.enabled) {
            // Sampled rows are estimates, not bit-exact results: gate
            // on 95% CI overlap of the mean IPC instead of equality.
            if (b.sampled.enabled != c.sampled.enabled) {
                r.exactDrift.push_back({b.workload, b.scheme, "sampled",
                                        b.sampled.enabled ? "yes" : "no",
                                        c.sampled.enabled ? "yes" : "no",
                                        "mode changed"});
                continue;
            }
            if (!sampledCiOverlap(b.sampled, c.sampled)) {
                const double ciSum =
                    b.sampled.ci95Ipc + c.sampled.ci95Ipc;
                char d[64];
                std::snprintf(d, sizeof(d), "%+.4f%% > CI %s",
                              pctDelta(b.sampled.meanIpc,
                                       c.sampled.meanIpc),
                              sigFig(ciSum, 3).c_str());
                r.exactDrift.push_back({b.workload, b.scheme, "mean_ipc",
                                        sigFig(b.sampled.meanIpc, 6),
                                        sigFig(c.sampled.meanIpc, 6),
                                        d});
            }
            continue;
        }
        if (b.insts != c.insts) {
            r.exactDrift.push_back({b.workload, b.scheme, "insts",
                                    u64Str(b.insts), u64Str(c.insts),
                                    signedDelta(b.insts, c.insts)});
        }
        if (b.cycles != c.cycles) {
            char ipc[48];
            std::snprintf(ipc, sizeof(ipc), "%+.4f%% IPC",
                          pctDelta(b.ipc(), c.ipc()));
            r.exactDrift.push_back({b.workload, b.scheme, "cycles",
                                    u64Str(b.cycles), u64Str(c.cycles),
                                    signedDelta(b.cycles, c.cycles)});
            r.exactDrift.push_back({b.workload, b.scheme, "ipc",
                                    sigFig(b.ipc(), 6),
                                    sigFig(c.ipc(), 6), ipc});
        }
    }
    if (base.traceHits != cur.traceHits ||
        base.traceMisses != cur.traceMisses) {
        r.exactDrift.push_back({"(trace cache)", "-", "hit/miss",
                                u64Str(base.traceHits) + "/" +
                                    u64Str(base.traceMisses),
                                u64Str(cur.traceHits) + "/" +
                                    u64Str(cur.traceMisses),
                                ""});
    }
    if (!r.exactDrift.empty())
        r.exitCode = 1;

    // Noisy pass: throughput numbers drift with the host; warn unless
    // a threshold is configured, and then fail only on a slowdown past
    // it.  A speedup never fails the gate.
    const bool gate = opts.throughputThresholdPct >= 0;
    struct Noisy
    {
        const char *name;
        double base, cur;
        bool higherIsBetter;
    };
    const Noisy noisy[] = {
        {"wall_seconds", base.wallSeconds, cur.wallSeconds, false},
        {"runs_per_sec", base.runsPerSec, cur.runsPerSec, true},
        {"minst_per_sec", base.minstPerSec, cur.minstPerSec, true},
    };
    for (const Noisy &m : noisy) {
        BenchDiffReport::NoisyRow row;
        row.name = m.name;
        row.base = m.base;
        row.cur = m.cur;
        row.deltaPct = pctDelta(m.base, m.cur);
        const double slowdownPct =
            m.higherIsBetter ? -row.deltaPct : row.deltaPct;
        row.regression = gate && slowdownPct > opts.throughputThresholdPct;
        if (row.regression && r.exitCode == 0)
            r.exitCode = 1;
        r.noisy.push_back(std::move(row));
    }

    // Phase-profile pass: host wall clock per phase, so always
    // warn-only.  Rows pair up by path; a phase present on only one
    // side is still shown (profiling config changed, or the code path
    // moved).
    auto slot = [&r](const std::string &path)
        -> BenchDiffReport::PhasePair & {
        for (auto &p : r.phases) {
            if (p.path == path)
                return p;
        }
        r.phases.push_back({path, -1, -1, -1, -1});
        return r.phases.back();
    };
    for (const auto &ph : base.phases) {
        auto &p = slot(ph.path);
        p.baseSeconds = ph.seconds;
        p.baseP95Us = ph.p95Us;
    }
    for (const auto &ph : cur.phases) {
        auto &p = slot(ph.path);
        p.curSeconds = ph.seconds;
        p.curP95Us = ph.p95Us;
    }
    return r;
}

std::string
renderBenchDiffJson(const BenchDiffReport &r)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"bench\": " << jsonStr(r.bench) << ",\n"
       << "  \"baseline\": {\"git_sha\": " << jsonStr(r.baseSha)
       << ", \"build_type\": " << jsonStr(r.baseBuild)
       << ", \"schema_version\": " << r.baseSchema << ", \"runs\": "
       << r.baseRuns << "},\n"
       << "  \"current\": {\"git_sha\": " << jsonStr(r.curSha)
       << ", \"build_type\": " << jsonStr(r.curBuild)
       << ", \"schema_version\": " << r.curSchema << ", \"runs\": "
       << r.curRuns << "},\n"
       << "  \"verdict\": " << jsonStr(r.verdict()) << ",\n"
       << "  \"exit_code\": " << r.exitCode << ",\n"
       << "  \"schema_mismatch\": "
       << (r.schemaMismatch ? "true" : "false") << ",\n"
       << "  \"run_count_mismatch\": "
       << (r.runCountMismatch ? "true" : "false") << ",\n"
       << "  \"exact_drift\": [";
    bool first = true;
    for (const auto &d : r.exactDrift) {
        os << (first ? "\n" : ",\n") << "    {\"workload\": "
           << jsonStr(d.workload) << ", \"scheme\": " << jsonStr(d.scheme)
           << ", \"metric\": " << jsonStr(d.metric) << ", \"baseline\": "
           << jsonStr(d.baseVal) << ", \"current\": " << jsonStr(d.curVal)
           << ", \"delta\": " << jsonStr(d.delta) << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "],\n"
       << "  \"noisy\": [";
    first = true;
    for (const auto &n : r.noisy) {
        os << (first ? "\n" : ",\n") << "    {\"name\": "
           << jsonStr(n.name) << ", \"baseline\": " << jsonNum(n.base)
           << ", \"current\": " << jsonNum(n.cur) << ", \"delta_pct\": "
           << jsonNum(n.deltaPct) << ", \"regression\": "
           << (n.regression ? "true" : "false") << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "],\n"
       << "  \"phases\": [";
    first = true;
    for (const auto &p : r.phases) {
        os << (first ? "\n" : ",\n") << "    {\"path\": "
           << jsonStr(p.path) << ", \"base_seconds\": "
           << (p.baseSeconds < 0 ? "null" : jsonNum(p.baseSeconds))
           << ", \"cur_seconds\": "
           << (p.curSeconds < 0 ? "null" : jsonNum(p.curSeconds))
           << ", \"base_p95_us\": "
           << (p.baseP95Us < 0 ? "null" : jsonNum(p.baseP95Us))
           << ", \"cur_p95_us\": "
           << (p.curP95Us < 0 ? "null" : jsonNum(p.curP95Us)) << "}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "]\n"
       << "}\n";
    return os.str();
}

int
diffBenchResults(const BenchResult &base, const BenchResult &cur,
                 const BenchDiffOptions &opts, std::ostream &os)
{
    const BenchDiffReport r = collectBenchDiff(base, cur, opts);

    os << "benchdiff: " << cur.bench << " (baseline " << base.gitSha
       << "/" << base.buildType << " vs current " << cur.gitSha << "/"
       << cur.buildType << ")\n";
    if (r.schemaMismatch) {
        os << "error: schema version mismatch (baseline v"
           << r.baseSchema << ", current v" << r.curSchema
           << "); regenerate the baseline\n";
        return r.exitCode;
    }
    if (r.runCountMismatch) {
        os << "EXACT DRIFT: run count " << r.baseRuns << " -> "
           << r.curRuns
           << " (sweep shape changed; regenerate the baseline if "
              "intentional)\n";
        return r.exitCode;
    }

    if (!r.exactDrift.empty()) {
        os << "EXACT DRIFT in " << r.exactDrift.size()
           << " metric(s) — deterministic simulation results changed:\n";
        std::vector<DiffRow> rows;
        for (const auto &d : r.exactDrift)
            rows.push_back({d.workload, d.scheme, d.metric, d.baseVal,
                            d.curVal, d.delta});
        printDiffTable(os, rows, opts.markdown);
    } else {
        os << "exact metrics: OK (" << r.curRuns
           << " runs, insts/cycles/trace-cache identical)\n";
    }

    const bool gate = opts.throughputThresholdPct >= 0;
    os << "noisy metrics ("
       << (gate ? "threshold " +
                      jsonNum(opts.throughputThresholdPct) + "%"
                : std::string("warn-only"))
       << "):\n";
    for (const auto &n : r.noisy) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "  %-14s %12.3f -> %12.3f  "
                      "(%+.1f%%)%s\n", n.name.c_str(), n.base, n.cur,
                      n.deltaPct, n.regression ? "  REGRESSION" : "");
        os << buf;
    }

    if (!r.phases.empty()) {
        auto secs = [](double s) {
            return s < 0 ? std::string("-") : sigFig(s, 4);
        };
        auto p95 = [](double us) {
            char buf[32];
            if (us < 0)
                return std::string("-");
            std::snprintf(buf, sizeof(buf), "%.0f", us);
            return std::string(buf);
        };
        os << "phase profile (host wall clock, warn-only):\n";
        if (opts.markdown) {
            os << "| phase | base s | cur s | delta | base p95 us "
               << "| cur p95 us |\n"
               << "|---|---:|---:|---:|---:|---:|\n";
        } else {
            char buf[192];
            std::snprintf(buf, sizeof(buf),
                          "  %-24s %10s %10s %9s %12s %12s\n", "phase",
                          "base_s", "cur_s", "delta", "base_p95_us",
                          "cur_p95_us");
            os << buf;
        }
        for (const auto &p : r.phases) {
            std::string delta = "-";
            if (p.baseSeconds >= 0 && p.curSeconds >= 0 &&
                p.baseSeconds > 0) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%+.1f%%",
                              pctDelta(p.baseSeconds, p.curSeconds));
                delta = buf;
            } else if (p.baseSeconds < 0) {
                delta = "new";
            } else if (p.curSeconds < 0) {
                delta = "gone";
            }
            if (opts.markdown) {
                os << "| " << p.path << " | " << secs(p.baseSeconds)
                   << " | " << secs(p.curSeconds) << " | " << delta
                   << " | " << p95(p.baseP95Us) << " | "
                   << p95(p.curP95Us) << " |\n";
            } else {
                char buf[256];
                std::snprintf(buf, sizeof(buf),
                              "  %-24s %10s %10s %9s %12s %12s\n",
                              p.path.c_str(), secs(p.baseSeconds).c_str(),
                              secs(p.curSeconds).c_str(), delta.c_str(),
                              p95(p.baseP95Us).c_str(),
                              p95(p.curP95Us).c_str());
                os << buf;
            }
        }
    }
    return r.exitCode;
}

} // namespace rrs::harness

/**
 * @file
 * Shared helpers for the benchmark harness binaries.  Each bench
 * regenerates one of the paper's tables or figures: it runs the
 * required simulations, prints the measured rows/series next to the
 * paper's reference values, and states the shape being validated.
 *
 * All benches fan their simulations out through the parallel sweep
 * engine (harness/sweep.hh): build every RunConfig up front, run one
 * sweep, then print from the in-order results.  `RRS_THREADS` caps the
 * lane count; the printed tables are bit-identical for every value of
 * it, and each bench appends a one-line throughput footer
 * (runs/s, Minst/s) so sweep speed is measurable.  When rename
 * invariant auditing is on (`RRS_AUDIT`, see rename/audit.hh) the
 * footer adds an audit line — checks run and violations found — so a
 * published table doubles as a self-check receipt.
 *
 * Every bench calls init(argc, argv) first and finish() last.
 * init() refuses any argument it does not know and the bench did not
 * declare, so a typo such as `--cpa` fails instead of running the
 * default grid.  `--prof` (or RRS_PROF=1) turns on the host-side phase
 * profiler (obs/profiler.hh) and makes finish() print its report;
 * `--cap <insts>` overrides the default per-run timing length for
 * quick CI smoke runs (the printed tables then differ from the
 * paper's, but stay deterministic for that cap).  Machine-readable
 * results come from the experiment ledger (tools/rrs-campaign), not
 * from the benches.
 */

#ifndef RRS_BENCH_COMMON_HH
#define RRS_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/strutils.hh"
#include "common/threadpool.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/sweep.hh"
#include "harness/sweepmatrix.hh"
#include "harness/tracecache.hh"
#include "obs/profiler.hh"
#include "stats/table.hh"
#include "trace/analysis.hh"
#include "trace/recorded.hh"
#include "workloads/workloads.hh"

namespace rrs::bench {

/**
 * The timing-run length this invocation actually uses:
 * harness::defaultTimingInsts unless `--cap <insts>` shortened it (CI
 * smoke runs trade table fidelity for wall clock; the results stay
 * deterministic per cap).
 */
inline std::uint64_t &
capInsts()
{
    static std::uint64_t insts = harness::defaultTimingInsts;
    return insts;
}

/** Default analysis window per workload. */
constexpr std::uint64_t analysisInsts = 300'000;

/**
 * The default sweep matrix: the paper's scheme pair over the Table III
 * register-file sweep points.  `--matrix <file>` replaces it wholesale
 * with a user-written document (harness/sweepmatrix.hh documents the
 * format), so any bench built on the matrix grid can sweep a new
 * scheme, a different size ladder or per-scheme parameter overrides
 * without a rebuild.
 */
inline const char *
defaultMatrixJson()
{
    return R"({
  "schemes": ["baseline", "reuse"],
  "rf_sizes": [48, 56, 64, 72, 80, 96, 112]
})";
}

/** `--matrix <file>` override path ("" = use the default matrix). */
inline std::string &
matrixJsonPath()
{
    static std::string path;
    return path;
}

/**
 * The `--sample` / RRS_SAMPLE override: disabled (exact simulation)
 * unless the flag was given, in which case it wins over any "sampling"
 * block of the matrix document.
 */
inline harness::SamplingParams &
sampleOverride()
{
    static harness::SamplingParams p;
    return p;
}

/** Default `--sample` windows: 12.5% detailed, ~warmed-up caches. */
constexpr std::uint64_t sampleWarmDefault = 2048;
constexpr std::uint64_t sampleDetailedDefault = 1024;
constexpr std::uint64_t samplePeriodDefault = 8192;

/**
 * Parse a "warm:detailed:period" sampling spec; "" and "1" (a plain
 * RRS_SAMPLE=1) select the defaults.  Each field is an rrs::parseInt
 * integer up to INT64_MAX, warm at least 0 and the others at least 1,
 * so warm + detailed cannot wrap.  Fatal, naming the field, on
 * anything else.
 */
inline harness::SamplingParams
parseSampleSpec(const char *spec)
{
    harness::SamplingParams p;
    p.warm = sampleWarmDefault;
    p.detailed = sampleDetailedDefault;
    p.period = samplePeriodDefault;
    if (spec == nullptr || *spec == '\0' || std::strcmp(spec, "1") == 0)
        return p;
    const std::vector<std::string_view> fields = split(spec, ':');
    if (fields.size() != 3)
        rrs_fatal("sampling spec must be warm:detailed:period, got '%s'",
                  spec);
    std::uint64_t *const out[3] = {&p.warm, &p.detailed, &p.period};
    const char *const names[3] = {"warm", "detailed", "period"};
    for (std::size_t i = 0; i < 3; ++i) {
        const std::optional<std::int64_t> v = parseInt(fields[i]);
        if (!v || *v < (i == 0 ? 0 : 1))
            rrs_fatal("sampling spec '%s': %s must be a %s integer up to "
                      "9223372036854775807", spec, names[i],
                      i == 0 ? "non-negative" : "positive");
        *out[i] = static_cast<std::uint64_t>(*v);
    }
    if (p.period < p.warm + p.detailed)
        rrs_fatal("sampling spec '%s': period must cover warm + detailed",
                  spec);
    return p;
}

/** This invocation's sweep matrix (parsed once, fatal on problems). */
inline const harness::SweepMatrix &
matrix()
{
    static const harness::SweepMatrix m = [] {
        harness::SweepMatrix mm =
            matrixJsonPath().empty()
                ? harness::parseSweepMatrix(defaultMatrixJson())
                : harness::loadSweepMatrixFile(matrixJsonPath());
        if (sampleOverride().enabled())
            mm.sampling = sampleOverride();
        return mm;
    }();
    return m;
}

/** Register-file sweep points (matrix "rf_sizes"; paper Table III). */
inline const std::vector<std::uint32_t> &
rfSizes()
{
    return matrix().rfSizes;
}

/** The bench process's sweep runner (thread count from RRS_THREADS). */
inline harness::SweepRunner &
sweeper()
{
    static harness::SweepRunner runner;
    return runner;
}

/** Print the standard throughput footer for the last sweep. */
inline void
sweepFooter()
{
    sweeper().printSummary(std::cout);
}

/** `--suite <name>` filter ("" = all suites). */
inline std::string &
suiteFilter()
{
    static std::string suite;
    return suite;
}

/** `--workload <substr>` filter ("" = all workloads). */
inline std::string &
workloadFilter()
{
    static std::string substr;
    return substr;
}

/**
 * Apply the --suite / --workload filters to a workload list.  Fatal
 * when the filters select nothing (a typo'd name would otherwise
 * silently produce an empty table): "no <what> --suite '..'
 * --workload '..'", naming only the flags given.
 */
inline std::vector<workloads::Workload>
filterWorkloads(const std::vector<workloads::Workload> &in,
                const std::string &what = "workloads match")
{
    std::vector<workloads::Workload> out;
    for (const auto &w : in) {
        if (!suiteFilter().empty() && w.suite != suiteFilter())
            continue;
        if (!workloadFilter().empty() &&
            w.name.find(workloadFilter()) == std::string::npos)
            continue;
        out.push_back(w);
    }
    if (out.empty()) {
        std::string flags;
        if (!suiteFilter().empty())
            flags += " --suite '" + suiteFilter() + "'";
        if (!workloadFilter().empty())
            flags += " --workload '" + workloadFilter() + "'";
        rrs_fatal("no %s%s", what.c_str(), flags.c_str());
    }
    return out;
}

/**
 * The workloads this bench invocation runs: all of them by default,
 * a subset under --suite / --workload.  The full run's tables are
 * untouched by this machinery; the filters exist for quick iteration
 * on one kernel or suite.
 */
inline std::vector<workloads::Workload>
selectedWorkloads()
{
    return filterWorkloads(workloads::allWorkloads());
}

/**
 * Standard bench option handling; call first in every main().  Parses
 * `--prof` (host phase profiler, also RRS_PROF=1), `--cap <insts>`
 * (shortened timing runs), `--suite <name>` and `--workload <substr>`
 * (subset selection for quick iteration; see selectedWorkloads()),
 * `--matrix <file>` (a JSON sweep matrix replacing the bench's default
 * scheme/size grid; see harness/sweepmatrix.hh) and `--sample
 * [warm:detailed:period]` (SMARTS sampled simulation, default
 * 2048:1024:8192; also RRS_SAMPLE=1 or RRS_SAMPLE=W:D:P).
 * @param benchFlags the bench's own flags (e.g. fig10's --quick),
 *        accepted at any position
 * @return the bench flags given, in command-line order
 * Any other argument is fatal, naming it, before any simulation runs.
 */
inline std::vector<std::string>
init(int argc, char **argv,
     std::initializer_list<std::string_view> benchFlags = {})
{
    if (const char *env = std::getenv("RRS_SAMPLE")) {
        if (*env != '\0' && std::strcmp(env, "0") != 0)
            sampleOverride() = parseSampleSpec(env);
    }
    // Label telemetry traces with this binary's name (argv[0]) so a
    // directory of RRS_TELEMETRY exports stays attributable per bench.
    // It must be set before the first sweep runs.
    if (argc > 0 && argv[0] != nullptr && *argv[0] != '\0') {
        std::string label(argv[0]);
        const std::size_t slash = label.find_last_of('/');
        if (slash != std::string::npos)
            label.erase(0, slash + 1);
        if (!label.empty())
            sweeper().setTelemetryLabel(std::move(label));
    }
    std::vector<std::string> given;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--prof") == 0) {
            obs::Profiler::setEnabled(true);
        } else if (std::strcmp(argv[i], "--cap") == 0) {
            if (i + 1 >= argc)
                rrs_fatal("--cap needs an instruction-count argument");
            const std::optional<std::int64_t> v = parseInt(argv[++i]);
            if (!v || *v <= 0)
                rrs_fatal("--cap must be a positive integer, got '%s'",
                          argv[i]);
            capInsts() = static_cast<std::uint64_t>(*v);
        } else if (std::strcmp(argv[i], "--suite") == 0) {
            if (i + 1 >= argc)
                rrs_fatal("--suite needs a suite name argument");
            suiteFilter() = argv[++i];
            bool known = false;
            for (const auto &s : workloads::suiteNames())
                known = known || s == suiteFilter();
            if (!known)
                rrs_fatal("unknown suite '%s' (try: specint, specfp, "
                          "media, cognitive)", suiteFilter().c_str());
        } else if (std::strcmp(argv[i], "--workload") == 0) {
            if (i + 1 >= argc)
                rrs_fatal("--workload needs a name substring argument");
            workloadFilter() = argv[++i];
        } else if (std::strcmp(argv[i], "--matrix") == 0) {
            if (i + 1 >= argc)
                rrs_fatal("--matrix needs a JSON file argument");
            matrixJsonPath() = argv[++i];
        } else if (std::strcmp(argv[i], "--sample") == 0) {
            // The warm:detailed:period spec is optional; a following
            // argument is taken as one only when it looks like a spec,
            // so `--sample --prof` keeps working.
            const char *spec = "";
            if (i + 1 < argc &&
                std::strchr(argv[i + 1], ':') != nullptr)
                spec = argv[++i];
            sampleOverride() = parseSampleSpec(spec);
        } else {
            if (std::find(benchFlags.begin(), benchFlags.end(),
                          argv[i]) == benchFlags.end())
                rrs_fatal("unknown argument '%s'", argv[i]);
            given.emplace_back(argv[i]);
        }
    }
    // Parse (and so validate) the matrix eagerly once all overrides are
    // in: a bad --matrix file or --sample spec dies here, before any
    // simulation work starts.
    if (!matrixJsonPath().empty())
        (void)matrix();
    return given;
}

/**
 * Standard bench epilogue; call last in every main().  Prints the
 * sweep throughput footer (when the bench ran any sweep) and the phase
 * profiler report (when profiling is on).
 */
inline void
finish()
{
    if (sweeper().summary().runs > 0)
        sweepFooter();
    if (obs::Profiler::enabled())
        obs::Profiler::report(std::cout);
}

/** Print a bench banner. */
inline void
banner(const std::string &what, const std::string &paperRef)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Paper reference: %s\n", paperRef.c_str());
    std::printf("==============================================================\n");
}

/** Value-usage analysis for one workload (trace-cache backed). */
inline trace::UsageReport
usageOf(const workloads::Workload &w,
        std::uint64_t window = analysisInsts)
{
    trace::ReplayStream stream(harness::traceCache().get(w, window));
    return trace::analyzeUsage(stream, window);
}

/**
 * Value-usage analyses for many workloads, fanned out across the
 * sweep pool's sibling (analysis has no RunConfig, so it uses the
 * thread pool directly).  Reports come back in input order.
 */
inline std::vector<trace::UsageReport>
usageReports(const std::vector<workloads::Workload> &ws,
             std::uint64_t window = analysisInsts)
{
    std::vector<trace::UsageReport> out(ws.size());
    ThreadPool pool;
    pool.parallelFor(ws.size(), [&](std::size_t i) {
        out[i] = usageOf(ws[i], window);
    });
    return out;
}

/**
 * The workloads a matrix runs: its own "suite" filter (when set)
 * composed with the --suite / --workload command-line filters.
 */
inline std::vector<workloads::Workload>
matrixWorkloads(const harness::SweepMatrix &m)
{
    if (m.suite.empty())
        return selectedWorkloads();
    return filterWorkloads(workloads::suiteWorkloads(m.suite),
                           "workload of the matrix's suite '" + m.suite +
                               "' matches");
}

using harness::OutcomePair;

/**
 * Base/proposed outcome pairs for every (workload, rf size) cell of a
 * two-column matrix, computed with a single sweep.  Returned as
 * [workload][size] pairs in input order.
 */
inline std::vector<std::vector<OutcomePair>>
outcomeGrid(const std::vector<workloads::Workload> &ws,
            const harness::SweepMatrix &m)
{
    return harness::outcomePairGrid(sweeper(), ws, m, capInsts());
}

/**
 * Ablation helper: geomean speedup of every non-first matrix column
 * against the first (the reference, usually "baseline"), over all
 * (workload, size) cells, one sweep for everything.  Returns one
 * geomean per non-reference column, in document order.
 */
inline std::vector<double>
geomeanSpeedups(const harness::SweepMatrix &m)
{
    rrs_assert(m.schemes.size() >= 2,
               "geomeanSpeedups needs a reference column plus at "
               "least one variant");
    const auto ws = matrixWorkloads(m);
    auto grid = harness::matrixOutcomeGrid(sweeper(), ws, m,
                                           capInsts());
    std::vector<std::vector<double>> speedups(m.schemes.size() - 1);
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        for (std::size_t si = 0; si < m.rfSizes.size(); ++si) {
            const auto &cell = grid[wi][si];
            for (std::size_t ci = 1; ci < m.schemes.size(); ++ci) {
                speedups[ci - 1].push_back(
                    static_cast<double>(cell[0].sim.cycles) /
                    static_cast<double>(cell[ci].sim.cycles));
            }
        }
    }
    std::vector<double> out;
    out.reserve(speedups.size());
    for (const auto &s : speedups)
        out.push_back(harness::geomean(s));
    return out;
}

} // namespace rrs::bench

#endif // RRS_BENCH_COMMON_HH

/**
 * @file
 * rrs-report: render a campaign ledger into one report.
 *
 *   rrs-report [--ledger <dir>] [--baseline <dir>]
 *              [--throughput-threshold <pct>] [--html] [-o <file>]
 *
 * Reads the campaign.json sidecar rrs-campaign wrote next to the
 * ledger's nodes/ directory and renders every figure and table of the
 * reproduction from ledger entries alone — no re-simulation.  Figure
 * blocks are byte-identical to the direct bench output for the same
 * runs; sampled rows carry 95% confidence intervals.  With --baseline,
 * a drift section diffs this ledger against a prior one (exact nodes
 * on every stored result, sampled nodes on CI overlap) and explains
 * any regression (which node, which metric, which stall cause grew),
 * and a host-cost section sets both sidecars' wall clock, threads and
 * trace-cache traffic side by side.
 *
 * Options:
 *   --ledger <dir>      ledger directory (default: RRS_LEDGER_DIR)
 *   --baseline <dir>    prior ledger to diff against
 *   --throughput-threshold <pct>
 *                       with --baseline, gate host cost: fail when the
 *                       wall clock rose by more than <pct>% (a
 *                       non-negative number; a speedup never fails) or
 *                       the trace-cache traffic differs
 *   --html              wrap the report in a minimal HTML page
 *   -o <file>           write to <file> (atomic) instead of stdout
 *
 * Exit status: 0 clean; 1 drift against the baseline (a node's result,
 * a node unreadable on one side, the node set, or gated host cost); 2
 * on a missing or unreadable sidecar, a figure node that cannot be
 * read when no drift names it, a baseline without nodes/, or a
 * host-cost gate that cannot compare (no baseline sidecar, different
 * node sets, or a side that did not simulate every node).  A node
 * file or a sidecar is read as written or not at all: a count that is
 * not a whole number in range, a field of the wrong JSON type, or a
 * missing member the sidecar must carry makes it unreadable, and the
 * error names the field.  The report is written whenever it rendered,
 * so a failing gate still leaves its explanation.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/atomicfile.hh"
#include "common/strutils.hh"
#include "harness/report.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--ledger <dir>] [--baseline <dir>] "
                 "[--throughput-threshold <pct>] [--html] [-o <file>]\n"
                 "  --ledger defaults to the RRS_LEDGER_DIR "
                 "environment variable\n",
                 argv0);
    std::exit(2);
}

/** The --throughput-threshold value: a non-negative percentage. */
double
parseThreshold(const char *text)
{
    const std::optional<double> v = rrs::parseDouble(text);
    if (!v || !(*v >= 0)) {
        std::fprintf(stderr,
                     "error: --throughput-threshold must be a "
                     "non-negative number, got '%s'\n",
                     text);
        std::exit(2);
    }
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string ledgerDir;
    if (const char *env = std::getenv("RRS_LEDGER_DIR"))
        ledgerDir = env;
    std::string outPath;
    rrs::harness::ReportOptions opts;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ledger") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            ledgerDir = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.baselineDir = argv[++i];
        } else if (std::strcmp(argv[i], "--throughput-threshold") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.throughputThresholdPct = parseThreshold(argv[++i]);
        } else if (std::strcmp(argv[i], "--html") == 0) {
            opts.html = true;
        } else if (std::strcmp(argv[i], "-o") == 0 ||
                   std::strcmp(argv[i], "--output") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            outPath = argv[++i];
        } else {
            usage(argv[0]);
        }
    }
    if (ledgerDir.empty()) {
        std::fprintf(stderr, "error: no ledger directory (pass "
                             "--ledger or set RRS_LEDGER_DIR)\n");
        return 2;
    }
    if (opts.throughputThresholdPct >= 0 && opts.baselineDir.empty()) {
        std::fprintf(stderr, "error: --throughput-threshold needs "
                             "--baseline\n");
        return 2;
    }

    const rrs::harness::Ledger ledger(ledgerDir);
    std::string report, error;
    const int status =
        rrs::harness::renderCampaignReport(ledger, opts, report, error);
    if (!error.empty())
        std::fprintf(stderr, "error: %s\n", error.c_str());
    if (report.empty())
        return status;
    if (outPath.empty()) {
        std::fputs(report.c_str(), stdout);
    } else if (!rrs::tryWriteFileAtomic(outPath, report, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    } else {
        std::printf("wrote %s\n", outPath.c_str());
    }
    if (status == 1)
        std::fprintf(stderr, "drift against the baseline: see the "
                             "report's drift and host-cost sections\n");
    return status;
}

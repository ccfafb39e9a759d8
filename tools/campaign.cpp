/**
 * @file
 * rrs-campaign: execute a campaign manifest against an experiment
 * ledger (harness/campaign.hh, DESIGN §4j).
 *
 *   rrs-campaign run --manifest <file> [options]
 *
 * Plans the manifest's node DAG, skips every node whose content digest
 * already has a ledger entry, simulates the rest through one parallel
 * sweep, and rewrites the campaign.json sidecar.  Re-running after an
 * interrupt (or an unrelated code change) is incremental; a clean
 * re-run simulates nothing and reports 100% ledger hits.
 *
 * Options:
 *   --manifest <file>       the campaign manifest (required)
 *   --ledger <dir>          ledger directory (default: RRS_LEDGER_DIR)
 *   --cap <insts>           override every per-run instruction cap
 *   --max-new-nodes <n>     simulate at most n missing nodes, then stop
 *                           (deterministic interrupt; re-run to resume)
 *   --threads <n>           sweep lanes (default: RRS_THREADS/hardware)
 *
 * Exit status: 0 on success (including a partial --max-new-nodes run),
 * 2 on a bad manifest or unusable ledger directory.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "common/strutils.hh"
#include "harness/campaign.hh"

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s run --manifest <file> [--ledger <dir>] "
                 "[--cap <insts>] [--max-new-nodes <n>] "
                 "[--threads <n>]\n"
                 "  --ledger defaults to the RRS_LEDGER_DIR "
                 "environment variable\n",
                 argv0);
    std::exit(2);
}

/** A positive integer that fits T, else a usage error. */
template <typename T>
T
parsePositive(const char *argv0, const char *flag, const char *text)
{
    const std::optional<std::int64_t> v = rrs::parseInt(text);
    if (!v || *v <= 0 ||
        static_cast<std::uint64_t>(*v) > std::numeric_limits<T>::max()) {
        std::fprintf(stderr, "error: %s must be a positive integer, "
                             "got '%s'\n", flag, text);
        usage(argv0);
    }
    return static_cast<T>(*v);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string manifestPath;
    std::string ledgerDir;
    if (const char *env = std::getenv("RRS_LEDGER_DIR"))
        ledgerDir = env;
    rrs::harness::CampaignOptions opts;

    bool sawRun = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "run") == 0 && !sawRun) {
            sawRun = true;
        } else if (std::strcmp(argv[i], "--manifest") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            manifestPath = argv[++i];
        } else if (std::strcmp(argv[i], "--ledger") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            ledgerDir = argv[++i];
        } else if (std::strcmp(argv[i], "--cap") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.capOverride = parsePositive<std::uint64_t>(
                argv[0], "--cap", argv[++i]);
        } else if (std::strcmp(argv[i], "--max-new-nodes") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.maxNewNodes = parsePositive<std::size_t>(
                argv[0], "--max-new-nodes", argv[++i]);
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.threads = parsePositive<unsigned>(argv[0], "--threads",
                                                   argv[++i]);
        } else {
            usage(argv[0]);
        }
    }
    if (!sawRun || manifestPath.empty())
        usage(argv[0]);
    if (ledgerDir.empty()) {
        std::fprintf(stderr, "error: no ledger directory (pass "
                             "--ledger or set RRS_LEDGER_DIR)\n");
        return 2;
    }

    const rrs::harness::CampaignManifest manifest =
        rrs::harness::loadCampaignManifestFile(manifestPath);
    const rrs::harness::Ledger ledger(ledgerDir);
    const rrs::harness::CampaignResult result =
        rrs::harness::runCampaign(manifest, ledger, opts, std::cout);

    // The grep-able receipt: a warm ledger reports 100% hits.
    const double hitPct =
        result.totalNodes
            ? 100.0 * static_cast<double>(result.hits) /
                  static_cast<double>(result.totalNodes)
            : 100.0;
    std::printf("ledger: %zu/%zu hits (%.0f%%), %zu simulated, "
                "%zu deferred\n",
                result.hits, result.totalNodes, hitPct,
                result.simulated, result.remaining);
    std::printf("sidecar: %s\n", result.sidecarPath.c_str());
    return 0;
}

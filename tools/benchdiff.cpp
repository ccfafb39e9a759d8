/**
 * @file
 * rrs-benchdiff: compare BENCH_*.json perf baselines.
 *
 *   rrs-benchdiff [options] <baseline> <current>
 *
 * Each argument is a BENCH_*.json file or a directory of them; with
 * directories, files are matched by name.  Exact metrics (instruction
 * and cycle counts, and the IPC derived from them) must match
 * bit-for-bit — the sweep engine guarantees them across thread counts
 * and machines — so any drift exits 1.  Noisy metrics (wall clock,
 * runs/s, Minst/s) only warn unless --throughput-threshold is given.
 * A schema-version mismatch exits 2.
 *
 * Options:
 *   --markdown                    pipe-table output (PR comments)
 *   --json                        machine-readable diff report(s):
 *                                 one JSON document per pair (an array
 *                                 in directory mode), same verdicts
 *                                 and exit codes as text mode
 *   --throughput-threshold <pct>  fail when throughput worsens by
 *                                 more than <pct>% (a non-negative
 *                                 number); a speedup never fails
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/strutils.hh"
#include "harness/benchjson.hh"

namespace {

namespace fs = std::filesystem;
using rrs::harness::BenchDiffOptions;
using rrs::harness::BenchResult;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--markdown] [--json] "
                 "[--throughput-threshold <pct>] "
                 "<baseline> <current>\n"
                 "  baseline/current: BENCH_*.json files, or "
                 "directories matched by file name\n",
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

/** BENCH_*.json files under `dir`, sorted by name. */
std::vector<std::string>
benchFiles(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (e.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
            name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".json") == 0) {
            names.push_back(name);
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

/**
 * Load both sides and diff; returns the diff exit code.  In JSON mode
 * the document goes to `jsonOut` instead of text to stdout — the same
 * collectBenchDiff verdicts either way, so the two modes can never
 * disagree on what counts as drift.
 */
int
diffFiles(const std::string &basePath, const std::string &curPath,
          const BenchDiffOptions &opts, std::string *jsonOut)
{
    BenchResult base, cur;
    std::string error;
    if (!rrs::harness::loadBenchJson(basePath, base, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    if (!rrs::harness::loadBenchJson(curPath, cur, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
    }
    if (jsonOut != nullptr) {
        const rrs::harness::BenchDiffReport report =
            rrs::harness::collectBenchDiff(base, cur, opts);
        *jsonOut = rrs::harness::renderBenchDiffJson(report);
        return report.exitCode;
    }
    return rrs::harness::diffBenchResults(base, cur, opts, std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchDiffOptions opts;
    bool json = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--markdown") == 0) {
            opts.markdown = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--throughput-threshold") == 0) {
            if (i + 1 >= argc)
                usage(argv[0]);
            opts.throughputThresholdPct = parseThreshold(argv[++i]);
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            usage(argv[0]);
        } else {
            paths.push_back(argv[i]);
        }
    }
    if (paths.size() != 2)
        usage(argv[0]);

    const bool baseDir = fs::is_directory(paths[0]);
    const bool curDir = fs::is_directory(paths[1]);
    if (baseDir != curDir) {
        std::fprintf(stderr, "error: cannot compare a directory with a "
                             "file\n");
        return 2;
    }
    if (!baseDir) {
        if (!json)
            return diffFiles(paths[0], paths[1], opts, nullptr);
        std::string doc;
        const int rc = diffFiles(paths[0], paths[1], opts, &doc);
        std::fputs(doc.c_str(), stdout);
        return rc;
    }

    // Directory mode: match by file name; a baseline with no current
    // counterpart is a missing bench (fail), a new current file only
    // notes (it has no baseline to regress against yet).  JSON mode
    // emits one array of per-bench documents.
    int worst = 0;
    const auto baseNames = benchFiles(paths[0]);
    const auto curNames = benchFiles(paths[1]);
    if (baseNames.empty()) {
        std::fprintf(stderr, "error: no BENCH_*.json under '%s'\n",
                     paths[0].c_str());
        return 2;
    }
    std::vector<std::string> docs;
    for (const auto &name : baseNames) {
        if (std::find(curNames.begin(), curNames.end(), name) ==
            curNames.end()) {
            if (json) {
                docs.push_back("{\"bench\": \"" + name +
                               "\", \"verdict\": \"missing\", "
                               "\"exit_code\": 1}\n");
            } else {
                std::printf("MISSING: %s present in baseline only\n",
                            name.c_str());
            }
            worst = std::max(worst, 1);
            continue;
        }
        std::string doc;
        const int rc = diffFiles(paths[0] + "/" + name,
                                 paths[1] + "/" + name, opts,
                                 json ? &doc : nullptr);
        if (json)
            docs.push_back(std::move(doc));
        worst = std::max(worst, rc);
    }
    for (const auto &name : curNames) {
        if (std::find(baseNames.begin(), baseNames.end(), name) ==
            baseNames.end()) {
            if (!json)
                std::printf("note: %s is new (no baseline)\n",
                            name.c_str());
        }
    }
    if (json) {
        std::fputs("[\n", stdout);
        for (std::size_t i = 0; i < docs.size(); ++i) {
            std::fputs(docs[i].c_str(), stdout);
            if (i + 1 < docs.size())
                std::fputs(",\n", stdout);
        }
        std::fputs("]\n", stdout);
    }
    return worst;
}

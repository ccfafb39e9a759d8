/**
 * @file
 * Output checks and the stored exact references.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.hh"
#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "obs/jsonlite.hh"

namespace rrbench {

using namespace rrs;

namespace {

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/** A reference key that does not match the plan. */
struct Stale
{
    std::string what;
};

/** Why run i's own outputs are wrong ("" when they are right). */
std::string
runProblem(const Plan &plan, std::size_t i, const RunOutcome &o)
{
    const std::uint64_t len = plan.streamLength(i);
    char buf[256];
    if (o.stalls.sum() != o.sim.cycles) {
        std::snprintf(buf, sizeof(buf),
                      "stall causes sum to %" PRIu64 " of %" PRIu64
                      " cycles", o.stalls.sum(), o.sim.cycles);
        return buf;
    }
    if (o.sim.cycles == 0 || o.ipc() <= 0)
        return "no cycles simulated";
    if (!plan.runs[i].config.sampling.enabled()) {
        if (o.sim.committedInsts != len) {
            std::snprintf(buf, sizeof(buf),
                          "committed %" PRIu64 " of %" PRIu64
                          " instructions", o.sim.committedInsts, len);
            return buf;
        }
        return "";
    }
    const harness::SampledSummary &s = o.sampled;
    const harness::SamplingParams &sp = plan.runs[i].config.sampling;
    const std::uint64_t accounted =
        s.detailedInsts + s.warmInsts + s.skippedInsts;
    const std::uint64_t periods = (len + sp.period - 1) / sp.period;
    if (!s.enabled || s.windows == 0)
        return "sampled run measured no windows";
    if (accounted != len) {
        std::snprintf(buf, sizeof(buf),
                      "sampled run accounted %" PRIu64 " of %" PRIu64
                      " records", accounted, len);
        return buf;
    }
    if (s.detailedInsts != o.sim.committedInsts ||
        s.detailedInsts > periods * sp.detailed) {
        std::snprintf(buf, sizeof(buf),
                      "detailed share %" PRIu64 " outside the schedule "
                      "(at most %" PRIu64 ")", s.detailedInsts,
                      periods * sp.detailed);
        return buf;
    }
    return "";
}

} // namespace

std::vector<core::SimResult>
sims(const std::vector<RunOutcome> &runs)
{
    std::vector<core::SimResult> out;
    out.reserve(runs.size());
    for (const RunOutcome &r : runs)
        out.push_back(r.sim);
    return out;
}

void
checkPass(const Plan &plan, const std::vector<RunOutcome> &runs,
          const std::vector<core::SimResult> *expect,
          const std::string &expectName, const std::string &pass,
          CheckLog &log)
{
    rrs_assert(runs.size() == plan.runs.size(), "pass size mismatch");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        ++log.attempted;
        std::string why = runProblem(plan, i, runs[i]);
        if (why.empty() && expect) {
            const core::SimResult &a = runs[i].sim;
            const core::SimResult &b = (*expect)[i];
            if (a.committedInsts != b.committedInsts ||
                a.cycles != b.cycles) {
                char buf[256];
                std::snprintf(buf, sizeof(buf),
                              "(%" PRIu64 " insts, %" PRIu64
                              " cycles) differs from the %s (%" PRIu64
                              ", %" PRIu64 ")", a.committedInsts,
                              a.cycles, expectName.c_str(),
                              b.committedInsts, b.cycles);
                why = buf;
            }
        }
        if (!why.empty()) {
            ++log.failedRuns;
            log.fail(pass + " " + plan.label(i) + ": " + why);
        }
    }
}

std::string
referencePath(const std::string &workload)
{
    return std::string(RRBENCH_DIR) + "/reference/" + workload + ".json";
}

void
writeReference(const std::string &path, const Plan &plan,
               const std::vector<core::SimResult> &exact)
{
    std::ostringstream os;
    os << "{\n  \"workload\": " << stats::jsonQuoted(plan.name)
       << ",\n  \"seed\": " << plan.seed << ",\n  \"cap\": " << plan.cap
       << ",\n  \"runs\": [\n";
    for (std::size_t i = 0; i < plan.runs.size(); ++i) {
        const RunSpec &r = plan.runs[i];
        os << "    {\"kernel\": " << stats::jsonQuoted(r.kernel->name)
           << ", \"source_hash\": \""
           << hex64(workloads::sourceHash(*r.kernel))
           << "\", \"scheme\": " << stats::jsonQuoted(r.config.scheme)
           << ", \"size\": " << r.size
           << ", \"stream\": " << plan.streamLength(i)
           << ", \"insts\": " << exact[i].committedInsts
           << ", \"cycles\": " << exact[i].cycles << "}"
           << (i + 1 < plan.runs.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
    std::string error;
    if (!tryWriteFileAtomic(path, os.str(), error))
        rrs_fatal("rrbench: cannot write reference '%s': %s",
                  path.c_str(), error.c_str());
}

bool
parseReference(const std::string &text, const Plan &plan, Reference &out,
               std::string &error)
{
    obs::json::Value doc;
    std::string jsonError;
    if (!obs::json::parse(text, doc, &jsonError) || !doc.isObject()) {
        error = "is not valid JSON: " + jsonError;
        return false;
    }

    auto stale = [](const std::string &what, const std::string &have,
                    const std::string &want) {
        throw Stale{"is stale: " + what + " is '" + have +
                    "', the benchmark needs '" + want + "'"};
    };
    auto str = [&](const obs::json::Value &v, const char *key) {
        const obs::json::Value *m = v.find(key);
        if (!m || !m->isString())
            stale(key, "<missing>", "a string");
        return m->str;
    };
    auto num = [&](const obs::json::Value &v, const char *key) {
        const obs::json::Value *m = v.find(key);
        if (!m || !m->isNumber())
            stale(key, "<missing>", "a number");
        return static_cast<std::uint64_t>(m->num);
    };

    try {
        if (str(doc, "workload") != plan.name)
            stale("workload", str(doc, "workload"), plan.name);
        if (num(doc, "seed") != plan.seed)
            stale("seed", std::to_string(num(doc, "seed")),
                  std::to_string(plan.seed));
        if (num(doc, "cap") != plan.cap)
            stale("cap", std::to_string(num(doc, "cap")),
                  std::to_string(plan.cap));
        const obs::json::Value *rows = doc.find("runs");
        if (!rows || !rows->isArray() ||
            rows->arr.size() != plan.runs.size())
            stale("run count",
                  rows && rows->isArray() ? std::to_string(rows->arr.size())
                                          : "<missing>",
                  std::to_string(plan.runs.size()));

        Reference ref;
        for (std::size_t i = 0; i < plan.runs.size(); ++i) {
            const RunSpec &r = plan.runs[i];
            const obs::json::Value &row = rows->arr[i];
            const std::string at = "run " + std::to_string(i) + " ";
            if (str(row, "kernel") != r.kernel->name)
                stale(at + "kernel", str(row, "kernel"), r.kernel->name);
            const std::string hash = hex64(workloads::sourceHash(*r.kernel));
            if (str(row, "source_hash") != hash)
                stale(at + "source_hash (" + r.kernel->name + ")",
                      str(row, "source_hash"), hash);
            if (str(row, "scheme") != r.config.scheme)
                stale(at + "scheme", str(row, "scheme"), r.config.scheme);
            if (num(row, "size") != r.size)
                stale(at + "size", std::to_string(num(row, "size")),
                      std::to_string(r.size));
            if (num(row, "stream") != plan.streamLength(i))
                stale(at + "stream", std::to_string(num(row, "stream")),
                      std::to_string(plan.streamLength(i)));
            core::SimResult s;
            s.committedInsts = num(row, "insts");
            s.cycles = num(row, "cycles");
            ref.runs.push_back(s);
        }
        out = std::move(ref);
        return true;
    } catch (const Stale &e) {
        error = e.what;
        return false;
    }
}

Reference
loadReference(const std::string &path, const Plan &plan)
{
    std::ifstream in(path);
    if (!in)
        rrs_fatal("rrbench: missing reference '%s' (write it with "
                  "`rrbench reference --workload %s`)", path.c_str(),
                  plan.name.c_str());
    std::stringstream text;
    text << in.rdbuf();
    Reference ref;
    std::string error;
    if (!parseReference(text.str(), plan, ref, error))
        rrs_fatal("rrbench: reference '%s' %s (rewrite it with `rrbench "
                  "reference --workload %s`)", path.c_str(), error.c_str(),
                  plan.name.c_str());
    return ref;
}

} // namespace rrbench

#include "plan.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"

namespace rrbench {

using namespace rrs;

namespace {

const std::vector<std::uint32_t> tableIIISizes = {48, 56, 64, 72,
                                                  80, 96, 112};

/** Sparse SMARTS schedule: 512 detailed records in every 32768. */
harness::SamplingParams
sparseSchedule()
{
    harness::SamplingParams p;
    p.warm = 2048;
    p.detailed = 512;
    p.period = 32768;
    return p;
}

/**
 * abl_synthetic's generator setting: predictable control flow and
 * light memory traffic, so register pressure dominates.
 */
trace::SyntheticParams
synthParams(double singleUse, std::uint64_t seed)
{
    trace::SyntheticParams sp;
    sp.seed = seed;
    sp.numInsts = 5'000;
    sp.singleUseFraction = singleUse;
    sp.redefFraction = 0.8;
    sp.branchFraction = 0.06;
    sp.takenFraction = 0.98;
    sp.loadFraction = 0.15;
    sp.storeFraction = 0.05;
    return sp;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "exact_fig11", "sampled_long", "synthetic_sweep"};
    return names;
}

std::string
Plan::label(std::size_t i) const
{
    const RunSpec &r = runs[i];
    std::string input;
    if (r.kernel) {
        input = r.kernel->name;
    } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "synthetic%.1f",
                      synth[r.fraction].singleUseFraction);
        input = buf;
    }
    return input + "/" + r.config.scheme + "/" + std::to_string(r.size);
}

unsigned
Plan::passesFor(double seconds) const
{
    return static_cast<unsigned>(std::max(1.0, std::floor(seconds /
                                                          passSeconds)));
}

std::uint64_t
Plan::runSeed(std::size_t i) const
{
    return harness::sweepSeed(runs[i].config.core.seed, i);
}

std::uint64_t
Plan::streamLength(std::size_t i) const
{
    const RunSpec &r = runs[i];
    return r.kernel ? harness::traceCache().get(*r.kernel, cap)->size()
                    : synth[r.fraction].numInsts;
}

Plan
makePlan(const std::string &name, std::uint64_t seed)
{
    Plan p;
    p.name = name;
    p.seed = seed;
    if (name == "exact_fig11") {
        p.kind = WorkloadKind::ExactFig11;
        p.cap = 20'000;
        p.sizes = tableIIISizes;
        p.setupRounds = 9;
        p.passSeconds = 7.2;
    } else if (name == "sampled_long") {
        p.kind = WorkloadKind::SampledLong;
        p.cap = 0;   // each kernel's full default stream
        p.sizes = {48, 64, 96};
        p.setupRounds = 5;
        p.passSeconds = 1.8;
    } else if (name == "synthetic_sweep") {
        p.kind = WorkloadKind::SyntheticSweep;
        p.sizes = tableIIISizes;
        p.setupRounds = 9;
        p.passSeconds = 3.5;
        for (int f = 0; f <= 8; ++f) {
            p.synth.push_back(synthParams(
                f / 10.0, harness::sweepSeed(seed, std::size_t(f))));
        }
    } else {
        rrs_fatal("rrbench: unknown workload '%s' (known: exact_fig11, "
                  "sampled_long, synthetic_sweep)", name.c_str());
    }
    if (!p.synthetic()) {
        for (const auto &w : workloads::allWorkloads())
            p.kernels.push_back(&w);
    }

    const std::size_t inputs =
        p.synthetic() ? p.synth.size() : p.kernels.size();
    for (std::size_t in = 0; in < inputs; ++in) {
        for (std::uint32_t n : p.sizes) {
            for (const char *scheme : {"baseline", "reuse"}) {
                RunSpec r;
                if (!p.synthetic())
                    r.kernel = p.kernels[in];
                r.fraction = in;
                r.size = n;
                r.config = harness::schemeConfig(scheme, n);
                r.config.maxInsts = p.cap;
                r.config.core.seed = seed;
                if (p.sampled())
                    r.config.sampling = sparseSchedule();
                p.runs.push_back(std::move(r));
            }
        }
    }
    return p;
}

} // namespace rrbench

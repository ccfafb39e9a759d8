/**
 * @file
 * Cold set-up of a workload's inputs, and the process's resident set.
 */

#include <fstream>
#include <string>

#include "bench.hh"
#include "harness/tracecache.hh"
#include "isa/assembler.hh"
#include "trace/recorded.hh"
#include "trace/synthetic.hh"

namespace rrbench {

using namespace rrs;

namespace {

/** A "VmXxx:  <kB> kB" field of /proc/self/status, in MB. */
double
statusMb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::string key = std::string(field) + ":";
    while (std::getline(in, line)) {
        if (line.compare(0, key.size(), key) == 0)
            return std::stod(line.substr(key.size())) / 1024.0;
    }
    return 0.0;
}

} // namespace

double
residentMb()
{
    return statusMb("VmRSS");
}

double
peakResidentMb()
{
    return statusMb("VmHWM");
}

SetupTimes
setupRound(const Plan &plan, bool keep, int round, SpanLog *log,
           std::vector<std::uint64_t> *digests)
{
    SetupTimes t;
    auto span = [&](const char *name, const std::string &what,
                    double start, double seconds) {
        if (log)
            log->add({name, "setup", -1, round, what, start, seconds, 1});
    };

    for (const workloads::Workload *w : plan.kernels) {
        const double s0 = log ? log->now() : 0.0;
        const Clock::time_point t0 = Clock::now();
        const isa::Program prog = isa::assemble(w->source);
        const double assemble = secondsSince(t0);

        // Capture packs the columns before it returns; the pack share
        // is the trace's own measurement of that step.
        const double s1 = log ? log->now() : 0.0;
        const Clock::time_point t1 = Clock::now();
        const trace::TracePtr tr =
            keep ? harness::traceCache().get(*w, plan.cap)
                 : workloads::captureTrace(*w, plan.cap);
        const double captureAndPack = secondsSince(t1);
        const double pack = tr->packed().buildSeconds();

        t.assemble += assemble;
        t.capture += captureAndPack - pack;
        t.pack += pack;
        t.records += tr->size();
        if (digests)
            digests->push_back(tr->digest());
        span("setup.assemble", w->name, s0, assemble);
        span("setup.capture", w->name, s1, captureAndPack - pack);
        span("setup.pack", w->name, s1 + captureAndPack - pack, pack);
    }

    // Synthetic runs generate their stream live; set-up generates each
    // run's stream once and digests it, the inputs' identity.
    for (std::size_t i = 0; plan.synthetic() && i < plan.runs.size(); ++i) {
        const trace::SyntheticParams &sp = plan.synth[plan.runs[i].fraction];
        const double s0 = log ? log->now() : 0.0;
        const Clock::time_point t0 = Clock::now();
        trace::SyntheticStream stream(sp);
        std::uint64_t h = 0xcbf29ce484222325ULL;
        std::uint64_t records = 0;
        while (std::optional<trace::DynInst> di = stream.next()) {
            trace::RecordedTrace::foldInst(h, *di);
            ++records;
        }
        const double generate = secondsSince(t0);
        t.generate += generate;
        t.records += records;
        if (digests)
            digests->push_back(h);
        span("setup.generate", plan.label(i), s0, generate);
    }
    return t;
}

} // namespace rrbench

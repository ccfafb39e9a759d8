/**
 * @file
 * Google-benchmark microbenchmarks of the hot simulator structures:
 * rename/commit throughput for both renamers, squash cost, cache
 * access, the memory system under a warming replay, emulation speed,
 * trace capture and digesting, trace analysis, and the whole O3 core
 * loop over captured workload and synthetic streams.  These guard the
 * simulator's own performance (the sweeps run hundreds of timing
 * simulations) and document the relative cost of the proposed
 * renamer's extra bookkeeping.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/threadpool.hh"
#include "core/o3core.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/tracecache.hh"
#include "mem/memsystem.hh"
#include "rename/baseline.hh"
#include "rename/reuse.hh"
#include "trace/analysis.hh"
#include "trace/recorded.hh"
#include "trace/synthetic.hh"
#include "workloads/workloads.hh"

using namespace rrs;

namespace {

trace::DynInst
chainInst(int i)
{
    trace::DynInst di;
    di.si.op = isa::Opcode::Add;
    di.si.dest = isa::intReg(static_cast<LogRegIndex>(1 + (i % 8)));
    di.si.srcs[0] = isa::intReg(static_cast<LogRegIndex>(1 + (i % 8)));
    di.si.srcs[1] = isa::intReg(static_cast<LogRegIndex>(9 + (i % 4)));
    di.pc = 0x1000 + 4 * static_cast<Addr>(i % 64);
    return di;
}

void
BM_BaselineRenameCommit(benchmark::State &state)
{
    rename::BaselineRenamer rn(rename::BaselineParams{128, 128});
    int i = 0;
    for (auto _ : state) {
        auto r = rn.rename(chainInst(i++));
        benchmark::DoNotOptimize(r);
        rn.commit(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BaselineRenameCommit);

void
BM_ReuseRenameCommit(benchmark::State &state)
{
    rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
    int i = 0;
    for (auto _ : state) {
        auto r = rn.rename(chainInst(i++));
        benchmark::DoNotOptimize(r);
        rn.commit(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseRenameCommit);

void
BM_ReuseRenameSquash(benchmark::State &state)
{
    rename::ReuseRenamer rn(rename::ReuseRenamerParams{});
    int i = 0;
    for (auto _ : state) {
        auto token = rn.historyPosition();
        for (int k = 0; k < 8; ++k)
            rn.rename(chainInst(i++));
        rn.squashTo(token);
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ReuseRenameSquash);

void
BM_CacheHit(benchmark::State &state)
{
    mem::MemSystem ms{mem::MemSystemParams{}};
    Tick now = ms.dataAccess(0x1000, 0x100000, false, 0);
    for (auto _ : state) {
        now = ms.dataAccess(0x1000, 0x100000, false, now);
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHit);

/**
 * fp_matmul's 100k-record capture replayed through one MemSystem the
 * way SamplingController::warmSpan warms it: one fetchAccess per new
 * 64-byte line, one dataAccess per load or store, one tick per record.
 * Each iteration is one pass; items are records.
 */
void
BM_MemReplay(benchmark::State &state)
{
    const trace::TracePtr captured = harness::traceCache().get(
        workloads::workload("fp_matmul"), 100'000);
    const trace::PackedTrace &pk = captured->packed();
    mem::MemSystem ms{mem::MemSystemParams{}};
    Tick t = 0;
    for (auto _ : state) {
        Addr lastLine = invalidAddr;
        for (std::size_t i = 0; i < pk.size(); ++i) {
            ++t;
            const isa::PackedMeta &m = pk.meta(i);
            const Addr pc = pk.pc(i);
            if (pc / 64 != lastLine) {
                benchmark::DoNotOptimize(ms.fetchAccess(pc, t));
                lastLine = pc / 64;
            }
            if (m.isLoad() || m.isStore()) {
                benchmark::DoNotOptimize(
                    ms.dataAccess(pc, pk.effAddr(i), m.isStore(), t));
            }
        }
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(pk.size()));
}
BENCHMARK(BM_MemReplay)->Unit(benchmark::kMillisecond);

void
BM_EmulatorThroughput(benchmark::State &state)
{
    const auto &w = workloads::workload("int_crc");
    auto stream = workloads::makeEmulator(w, 1'000'000'000);
    trace::DynInst di;
    std::uint64_t n = 0;
    for (auto _ : state) {
        if (!stream->step(di))
            stream = workloads::makeEmulator(w, 1'000'000'000);
        benchmark::DoNotOptimize(di);
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmulatorThroughput);

/** Capture of int_sort's 20k-record stream; items are records. */
void
BM_CaptureTrace(benchmark::State &state)
{
    const auto &w = workloads::workload("int_sort");
    std::int64_t records = 0;
    for (auto _ : state) {
        const trace::TracePtr t = workloads::captureTrace(w, 20'000);
        records += static_cast<std::int64_t>(t->size());
    }
    state.SetItemsProcessed(records);
}
BENCHMARK(BM_CaptureTrace)->Unit(benchmark::kMillisecond);

/** The record digest of that capture; items are records. */
void
BM_TraceDigest(benchmark::State &state)
{
    const trace::TracePtr t =
        workloads::captureTrace(workloads::workload("int_sort"), 20'000);
    for (auto _ : state)
        benchmark::DoNotOptimize(t->digest());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t->size()));
}
BENCHMARK(BM_TraceDigest)->Unit(benchmark::kMillisecond);

/** Analysis of fp_horner's 50k-record capture; items are records. */
void
BM_UsageAnalysis(benchmark::State &state)
{
    const trace::TracePtr t =
        workloads::captureTrace(workloads::workload("fp_horner"), 50'000);
    for (auto _ : state) {
        auto rep = trace::analyzeUsage(*t);
        benchmark::DoNotOptimize(rep);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t->size()));
}
BENCHMARK(BM_UsageAnalysis);

void
BM_ThreadPoolParallelFor(benchmark::State &state)
{
    // Overhead of the sweep engine's fan-out: every call starts and
    // joins its helper lanes around near-empty loop bodies.
    ThreadPool pool;
    constexpr std::size_t n = 256;
    std::vector<std::uint64_t> out(n);
    for (auto _ : state) {
        pool.parallelFor(n, [&](std::size_t i) { out[i] = i * i; });
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ThreadPoolParallelFor);

void
BM_SweepRunnerTinySweep(benchmark::State &state)
{
    // End-to-end sweep throughput on a tiny config grid; items/s here
    // is simulation runs per second, the number the sweep footer
    // reports on real artifacts.
    harness::SweepRunner runner;
    std::vector<harness::SweepItem> items;
    const auto &w = workloads::workload("int_crc");
    for (std::uint32_t n : {56u, 96u}) {
        auto base = harness::baselineConfig(n);
        base.maxInsts = 2'000;
        auto prop = harness::reuseConfig(n);
        prop.maxInsts = 2'000;
        items.push_back(harness::sweepItem(w, base));
        items.push_back(harness::sweepItem(w, prop));
    }
    for (auto _ : state) {
        auto results = runner.run(items);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_SweepRunnerTinySweep);

/** Everything one core run needs, built fresh for each iteration. */
struct CoreRig
{
    trace::ReplayStream stream;
    mem::MemSystem mem;
    bpred::BranchPredictor bp;
    std::unique_ptr<rename::Renamer> renamer;
    core::O3Core core;

    CoreRig(const trace::TracePtr &trace, const harness::RunConfig &cfg)
        : stream(trace), mem(cfg.mem), bp(cfg.bpred),
          renamer(rename::renameScheme(cfg.scheme).makeRenamer(cfg.rename)),
          core(cfg.core, *renamer, mem, bp, stream)
    {
    }
};

/**
 * O3Core::run() over one whole captured stream, at 56 registers:
 * `source` is a workload's 20k-record capture, or "synthetic" for a
 * 5000-record synthetic capture.  Building the rig is not timed; items
 * are committed instructions.
 */
void
BM_CoreReplay(benchmark::State &state, const std::string &source,
              const std::string &scheme)
{
    const harness::RunConfig cfg = harness::schemeConfig(scheme, 56);
    trace::SyntheticParams synth;
    synth.numInsts = 5'000;
    const trace::TracePtr captured =
        source == "synthetic"
            ? trace::captureSynthetic(synth)
            : harness::traceCache().get(workloads::workload(source),
                                        20'000);

    std::unique_ptr<CoreRig> rig;
    std::int64_t committed = 0;
    for (auto _ : state) {
        state.PauseTiming();
        rig = std::make_unique<CoreRig>(captured, cfg);
        state.ResumeTiming();
        const core::SimResult r = rig->core.run();
        benchmark::DoNotOptimize(r);
        committed += static_cast<std::int64_t>(r.committedInsts);
    }
    state.SetItemsProcessed(committed);
}
BENCHMARK_CAPTURE(BM_CoreReplay, int_sort_baseline, "int_sort", "baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreReplay, int_sort_reuse, "int_sort", "reuse")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreReplay, fp_fir_baseline, "fp_fir", "baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreReplay, fp_fir_reuse, "fp_fir", "reuse")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreReplay, synthetic_baseline, "synthetic",
                  "baseline")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CoreReplay, synthetic_reuse, "synthetic", "reuse")
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

#include "workloads.hh"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "isa/assembler.hh"
#include "obs/profiler.hh"
#include "trace/fnv.hh"

namespace rrs::workloads {

// Kernel sources (defined in kernels_*.cc).
extern const char *srcIntSort;
extern const char *srcIntHash;
extern const char *srcIntCrc;
extern const char *srcIntSieve;
extern const char *srcIntMatch;
extern const char *srcIntGraph;
extern const char *srcFpMatmul;
extern const char *srcFpFir;
extern const char *srcFpJacobi;
extern const char *srcFpNbody;
extern const char *srcFpHorner;
extern const char *srcFpChain;
extern const char *srcMediaAdpcm;
extern const char *srcMediaDct;
extern const char *srcMediaSobel;
extern const char *srcCogGmm;
extern const char *srcCogDnn;
extern const char *srcIntLz;
extern const char *srcFpBlur;
extern const char *srcMediaG711;
extern const char *srcCogKnn;

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> list = {
        {"int_sort", "specint", srcIntSort, 400'000},
        {"int_hash", "specint", srcIntHash, 400'000},
        {"int_crc", "specint", srcIntCrc, 400'000},
        {"int_sieve", "specint", srcIntSieve, 400'000},
        {"int_match", "specint", srcIntMatch, 400'000},
        {"int_graph", "specint", srcIntGraph, 400'000},
        {"int_lz", "specint", srcIntLz, 400'000},
        {"fp_matmul", "specfp", srcFpMatmul, 400'000},
        {"fp_fir", "specfp", srcFpFir, 400'000},
        {"fp_jacobi", "specfp", srcFpJacobi, 400'000},
        {"fp_nbody", "specfp", srcFpNbody, 400'000},
        {"fp_horner", "specfp", srcFpHorner, 400'000},
        {"fp_chain", "specfp", srcFpChain, 400'000},
        {"fp_blur", "specfp", srcFpBlur, 400'000},
        {"media_adpcm", "media", srcMediaAdpcm, 400'000},
        {"media_dct", "media", srcMediaDct, 400'000},
        {"media_sobel", "media", srcMediaSobel, 400'000},
        {"media_g711", "media", srcMediaG711, 400'000},
        {"cog_gmm", "cognitive", srcCogGmm, 400'000},
        {"cog_dnn", "cognitive", srcCogDnn, 400'000},
        {"cog_knn", "cognitive", srcCogKnn, 400'000},
    };
    return list;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "specint", "specfp", "media", "cognitive"};
    return names;
}

std::vector<Workload>
suiteWorkloads(const std::string &suite)
{
    std::vector<Workload> out;
    for (const auto &w : allWorkloads()) {
        if (w.suite == suite)
            out.push_back(w);
    }
    return out;
}

const Workload &
workload(const std::string &name)
{
    for (const auto &w : allWorkloads()) {
        if (w.name == name)
            return w;
    }
    rrs_fatal("unknown workload '%s'", name.c_str());
}

const isa::Program &
program(const Workload &w)
{
    // Sweep workers assemble workloads concurrently; the cache is the
    // only cross-run shared state, so it is locked.  std::map keeps
    // element references stable across later insertions, making the
    // returned reference safe to use outside the lock.
    static std::mutex cacheMutex;
    static std::map<std::string, isa::Program> cache;
    std::lock_guard<std::mutex> lock(cacheMutex);
    auto it = cache.find(w.name);
    if (it == cache.end())
        it = cache.emplace(w.name, isa::assemble(w.source)).first;
    return it->second;
}

std::uint64_t
sourceHash(const Workload &w)
{
    return trace::fnv::hashBytes(w.source);
}

std::unique_ptr<emu::Emulator>
makeEmulator(const Workload &w, std::uint64_t maxInsts)
{
    const isa::Program &prog = program(w);
    auto stream = std::make_unique<emu::Emulator>(prog, w.name);
    // Skip the kernel's initialisation phase so measurements cover the
    // computation itself; the `warmup_done` label marks the boundary.
    auto it = prog.symbols.find("warmup_done");
    if (it != prog.symbols.end()) {
        obs::ScopedPhase phase("warmup");
        stream->fastForwardTo(it->second, 5'000'000);
    }
    stream->setMaxInsts(stream->instCount() + resolvedCap(w, maxInsts));
    return stream;
}

trace::TracePtr
captureTrace(const Workload &w, std::uint64_t maxInsts)
{
    obs::ScopedPhase phase("capture");
    const std::uint64_t cap = resolvedCap(w, maxInsts);
    auto e = makeEmulator(w, maxInsts);
    trace::PackedTrace records;
    records.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(cap, 1'000'000)));
    trace::DynInst di;
    while (e->step(di))
        records.append(di);
    return std::make_shared<trace::RecordedTrace>(
        w.name, cap, sourceHash(w), std::move(records));
}

} // namespace rrs::workloads

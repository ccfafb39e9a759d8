/**
 * @file
 * rrs-tracetool: inspect, capture and verify binary trace files
 * (trace/tracefile.hh; besides the tests, this tool is the codec's
 * only caller).
 *
 *   rrs-tracetool capture <workload> <file> [maxInsts]
 *       Functionally emulate a workload (post-warmup, capped) and
 *       write the captured stream as a trace file.
 *
 *   rrs-tracetool info <file>
 *       Print a trace file's header, record count and digests.
 *
 *   rrs-tracetool verify <file>
 *       Structurally validate a trace file (magic, version, record
 *       encoding, digest trailer), then — when the workload is still
 *       in the registry — recapture it and compare digests, proving
 *       the file replays bit-identically to a live emulation of the
 *       current sources.  Exit status 0 only if everything matches.
 *
 *   rrs-tracetool mix <workload> [maxInsts]
 *   rrs-tracetool mix <file>
 *       Print the instruction-class mix (loads / stores / branches /
 *       ALU, taken and dest-writer fractions), counted from the packed
 *       meta column.  A registry workload name captures fresh;
 *       anything else is read as a trace file, whose length was fixed
 *       at capture, so a maxInsts after a file is refused.
 *
 * maxInsts must be a positive integer (decimal or 0x-hex); without it
 * the workload's default cap applies.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "common/strutils.hh"
#include "trace/packed.hh"
#include "trace/recorded.hh"
#include "trace/tracefile.hh"
#include "workloads/workloads.hh"

using namespace rrs;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: rrs-tracetool <command> ...\n"
                 "  capture <workload> <file> [maxInsts]  emulate once, "
                 "write trace\n"
                 "  info <file>                           print header "
                 "and digests\n"
                 "  verify <file>                         validate, then "
                 "compare against a fresh capture\n"
                 "  mix <workload> [maxInsts] | <file>    instruction-"
                 "class mix from the packed meta column\n"
                 "workloads: every name from the registry, e.g. "
                 "int_sort, fp_matmul, media_dct, cog_gmm\n");
    return 2;
}

const workloads::Workload *
findWorkload(const std::string &name)
{
    for (const auto &w : workloads::allWorkloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

/** The maxInsts argument: a positive integer, else fatal. */
std::uint64_t
parseCap(const char *text)
{
    const std::optional<std::int64_t> v = parseInt(text);
    if (!v || *v <= 0)
        rrs_fatal("maxInsts must be a positive integer, got '%s'", text);
    return static_cast<std::uint64_t>(*v);
}

void
printInfo(const trace::RecordedTrace &t, const std::string &path,
          std::uint32_t fileVersion)
{
    std::printf("file:        %s\n", path.c_str());
    std::printf("version:     %u\n", fileVersion);
    std::printf("workload:    %s\n", t.workload().c_str());
    std::printf("cap:         %llu insts (post-warmup)\n",
                static_cast<unsigned long long>(t.cap()));
    std::printf("records:     %zu\n", t.size());
    std::printf("source hash: %016llx\n",
                static_cast<unsigned long long>(t.sourceHash()));
    std::printf("digest:      %016llx\n",
                static_cast<unsigned long long>(t.digest()));
    std::printf("packed:      %016llx\n",
                static_cast<unsigned long long>(t.packed().digest()));
    if (!t.empty()) {
        std::printf("first seq:   %llu\n",
                    static_cast<unsigned long long>(t[0].seq));
        std::printf("last seq:    %llu\n",
                    static_cast<unsigned long long>(t[t.size() - 1].seq));
    }
}

int
cmdCapture(int argc, char **argv)
{
    if (argc < 4 || argc > 5)
        return usage();
    const workloads::Workload *w = findWorkload(argv[2]);
    if (!w)
        rrs_fatal("unknown workload '%s'", argv[2]);
    const std::uint64_t maxInsts = argc == 5 ? parseCap(argv[4]) : 0;

    trace::TracePtr t = workloads::captureTrace(*w, maxInsts);
    trace::writeTraceFile(argv[3], *t);
    std::printf("captured %zu records of '%s' (cap %llu) -> %s\n",
                t->size(), t->workload().c_str(),
                static_cast<unsigned long long>(t->cap()), argv[3]);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    std::string error;
    std::uint32_t fileVersion = 0;
    trace::TracePtr t =
        trace::tryReadTraceFile(argv[2], error, &fileVersion);
    if (!t)
        rrs_fatal("%s", error.c_str());
    printInfo(*t, argv[2], fileVersion);
    return 0;
}

int
cmdVerify(int argc, char **argv)
{
    if (argc != 3)
        return usage();
    // Structural validation (magic, version, records, digests) is the
    // reader itself; fatal with the reader's message on any problem.
    trace::TracePtr t = trace::readTraceFile(argv[2]);
    std::printf("structure:   ok (%zu records, digest verified)\n",
                t->size());

    const workloads::Workload *w = findWorkload(t->workload());
    if (!w) {
        std::printf("workload:    '%s' not in this build's registry; "
                    "skipping recapture check\n", t->workload().c_str());
        return 0;
    }
    if (workloads::sourceHash(*w) != t->sourceHash()) {
        std::printf("recapture:   STALE — workload '%s' sources changed "
                    "since capture\n", w->name.c_str());
        return 1;
    }
    trace::TracePtr fresh = workloads::captureTrace(*w, t->cap());
    // Each digest is a pass over its trace: fold each once.
    const std::uint64_t fileDigest = t->digest();
    const std::uint64_t freshDigest = fresh->digest();
    if (freshDigest != fileDigest || fresh->size() != t->size()) {
        std::printf("recapture:   MISMATCH — file digest %016llx, fresh "
                    "capture %016llx\n",
                    static_cast<unsigned long long>(fileDigest),
                    static_cast<unsigned long long>(freshDigest));
        return 1;
    }
    std::printf("recapture:   ok — replays bit-identical to a live "
                "emulation (%zu records)\n", fresh->size());
    return 0;
}

int
cmdMix(int argc, char **argv)
{
    if (argc < 3 || argc > 4)
        return usage();

    // A registry workload name captures fresh; anything else is a
    // trace-file path, whose length its capture already fixed.
    trace::TracePtr t;
    if (const workloads::Workload *w = findWorkload(argv[2])) {
        t = workloads::captureTrace(*w, argc == 4 ? parseCap(argv[3]) : 0);
        std::printf("mix of workload '%s' (fresh capture)\n",
                    w->name.c_str());
    } else {
        if (argc == 4)
            rrs_fatal("maxInsts '%s' applies only to a workload; trace "
                      "file '%s' keeps the cap it was captured with",
                      argv[3], argv[2]);
        t = trace::readTraceFile(argv[2]);
        std::printf("mix of trace file %s (workload '%s')\n", argv[2],
                    t->workload().c_str());
    }

    const trace::PackedTrace &p = t->packed();
    const auto total = static_cast<std::uint64_t>(p.size());
    if (total == 0) {
        std::printf("records:   0\n");
        return 0;
    }

    // One pass over the meta column: attribute bits and class bytes,
    // no per-record decode.
    std::uint64_t loads = 0, stores = 0, branches = 0, taken = 0;
    std::uint64_t destWriters = 0, renamed = 0;
    std::uint64_t intAlu = 0, fpAlu = 0, nops = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        const isa::PackedMeta &m = p.meta(i);
        loads += m.isLoad();
        stores += m.isStore();
        branches += m.isControl();
        taken += p.taken(i);
        destWriters += m.hasDest();
        renamed += (m.attrs & isa::instattr::writesReg) != 0;
        switch (m.cls) {
          case isa::InstClass::IntAlu:
          case isa::InstClass::IntMult:
          case isa::InstClass::IntDiv:
            ++intAlu;
            break;
          case isa::InstClass::FpAlu:
          case isa::InstClass::FpMult:
          case isa::InstClass::FpDiv:
            ++fpAlu;
            break;
          case isa::InstClass::Nop:
            ++nops;
            break;
          default:
            break;
        }
    }

    auto pct = [total](std::uint64_t v) {
        return 100.0 * static_cast<double>(v) /
               static_cast<double>(total);
    };
    std::printf("records:   %llu\n",
                static_cast<unsigned long long>(total));
    std::printf("loads:     %10llu  (%5.1f%%)\n",
                static_cast<unsigned long long>(loads), pct(loads));
    std::printf("stores:    %10llu  (%5.1f%%)\n",
                static_cast<unsigned long long>(stores), pct(stores));
    std::printf("branches:  %10llu  (%5.1f%%, %.1f%% taken)\n",
                static_cast<unsigned long long>(branches), pct(branches),
                branches == 0 ? 0.0
                              : 100.0 * static_cast<double>(taken) /
                                    static_cast<double>(branches));
    std::printf("int alu:   %10llu  (%5.1f%%)\n",
                static_cast<unsigned long long>(intAlu), pct(intAlu));
    std::printf("fp alu:    %10llu  (%5.1f%%)\n",
                static_cast<unsigned long long>(fpAlu), pct(fpAlu));
    std::printf("nops:      %10llu  (%5.1f%%)\n",
                static_cast<unsigned long long>(nops), pct(nops));
    std::printf("dest writers: %llu of %llu (%.1f%%); %llu allocate a "
                "rename (%.1f%%)\n",
                static_cast<unsigned long long>(destWriters),
                static_cast<unsigned long long>(total), pct(destWriters),
                static_cast<unsigned long long>(renamed), pct(renamed));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "capture") == 0)
        return cmdCapture(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return cmdInfo(argc, argv);
    if (std::strcmp(argv[1], "verify") == 0)
        return cmdVerify(argc, argv);
    if (std::strcmp(argv[1], "mix") == 0)
        return cmdMix(argc, argv);
    return usage();
}

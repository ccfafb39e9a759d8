/**
 * @file
 * rrs-tracetool: inspect a workload's captured instruction stream.
 *
 *   rrs-tracetool mix <workload> [maxInsts]
 *       Capture the workload (post-warmup, capped) and print its
 *       instruction-class mix (loads / stores / branches / ALU, taken
 *       and dest-writer fractions), counted from the static
 *       instructions' meta, and the trace's footprint: its distinct
 *       static instructions and the bytes it holds per record.
 *
 * maxInsts must be a positive integer (decimal or 0x-hex); without it
 * the workload's default cap applies.
 */

#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/strutils.hh"
#include "trace/packed.hh"
#include "trace/recorded.hh"
#include "workloads/workloads.hh"

using namespace rrs;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: rrs-tracetool mix <workload> [maxInsts]\n"
                 "  instruction-class mix and footprint of a fresh "
                 "capture\n"
                 "workloads: every name from the registry, e.g. "
                 "int_sort, fp_matmul, media_dct, cog_gmm\n");
    return 2;
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

int
cmdMix(int argc, char **argv)
{
    if (argc < 3 || argc > 4)
        return usage();
    const workloads::Workload &w = workloads::workload(argv[2]);
    const trace::TracePtr t =
        workloads::captureTrace(w, argc == 4 ? parseCap(argv[3]) : 0);
    std::printf("mix of workload '%s' (fresh capture)\n", w.name.c_str());

    const trace::PackedTrace &p = t->packed();
    const auto total = static_cast<std::uint64_t>(p.size());
    if (total == 0) {
        std::printf("records:   0\n");
        return 0;
    }

    // One pass over the records' meta: attribute bits and class bytes,
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
    std::printf("footprint: %llu static instructions, %.2f bytes per "
                "record\n",
                static_cast<unsigned long long>(p.staticInsts()),
                static_cast<double>(p.bytes()) /
                    static_cast<double>(total));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "mix") == 0)
        return cmdMix(argc, argv);
    return usage();
}

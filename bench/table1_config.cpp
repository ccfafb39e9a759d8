/**
 * @file
 * Table I: the simulated system configuration.  Prints the default
 * parameters of every subsystem so a reader can check them against the
 * paper's Table I.
 */

#include "bpred/bpred.hh"
#include "common.hh"
#include "core/params.hh"
#include "mem/memsystem.hh"

using namespace rrs;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    bench::banner("Table I: system configuration",
                  "ARMv8-like, 2 GHz, 128-entry ROB, 40-entry IQ, "
                  "3-wide, 32 KB L1D, 48 KB L1I, 1 MB L2, stride "
                  "prefetcher, 2K BTB, 15-cycle mispredict penalty, "
                  "DDR3-1600");

    core::CoreParams cp;
    mem::MemSystemParams mp;
    bpred::BPredParams bp;

    stats::TextTable t({"unit", "parameter", "value", "paper"});
    t.row().cell("core").cell("ROB entries").cell(cp.robEntries)
        .cell("128");
    t.row().cell("core").cell("IQ entries").cell(cp.iqEntries).cell("40");
    // The model has no decode stage: fetch fills the fetch queue and
    // rename takes renameWidth instructions a cycle.
    t.row().cell("core").cell("decode width").cell(cp.renameWidth)
        .cell("3");
    t.row().cell("core").cell("dispatch width").cell(cp.renameWidth)
        .cell("3");
    t.row().cell("core").cell("fetch queue").cell(cp.fetchQueueEntries)
        .cell("32");
    t.row().cell("core").cell("mispredict penalty (cyc)")
        .cell(static_cast<std::uint64_t>(cp.mispredictPenalty))
        .cell("15");
    t.row().cell("bpred").cell("BTB entries").cell(bp.btbEntries)
        .cell("2K");
    t.row().cell("l1d").cell("size (KB)")
        .cell(static_cast<std::uint64_t>(mp.l1d.sizeBytes / 1024))
        .cell("32");
    t.row().cell("l1d").cell("assoc").cell(mp.l1d.assoc).cell("2");
    t.row().cell("l1d").cell("latency (cyc)")
        .cell(static_cast<std::uint64_t>(mp.l1d.hitLatency)).cell("1");
    t.row().cell("l1i").cell("size (KB)")
        .cell(static_cast<std::uint64_t>(mp.l1i.sizeBytes / 1024))
        .cell("48");
    t.row().cell("l1i").cell("assoc").cell(mp.l1i.assoc).cell("3");
    t.row().cell("l2").cell("size (MB)")
        .cell(static_cast<std::uint64_t>(mp.l2.sizeBytes / 1024 / 1024))
        .cell("1");
    t.row().cell("l2").cell("assoc").cell(mp.l2.assoc).cell("16");
    t.row().cell("l2").cell("latency (cyc)")
        .cell(static_cast<std::uint64_t>(mp.l2.hitLatency)).cell("12");
    t.row().cell("line").cell("size (B)").cell(mp.l1d.lineBytes)
        .cell("64");
    t.row().cell("tlb").cell("entries").cell(mp.tlb.entries).cell("48");
    t.row().cell("prefetch").cell("stride degree")
        .cell(mp.prefetchDegree).cell("1");
    t.row().cell("dram").cell("ranks/channel").cell(mp.dram.ranks)
        .cell("2");
    t.row().cell("dram").cell("banks/rank").cell(mp.dram.banksPerRank)
        .cell("8");
    t.row().cell("dram").cell("row size (KB)")
        .cell(mp.dram.rowBytes / 1024).cell("8");
    t.row().cell("dram").cell("tCAS=tRCD=tRP (cyc @2GHz)")
        .cell(static_cast<std::uint64_t>(mp.dram.tCas)).cell("27.5");
    t.row().cell("dram").cell("tREFI (cyc @2GHz)")
        .cell(static_cast<std::uint64_t>(mp.dram.tRefi)).cell("15600");
    t.print(std::cout, "Simulated configuration vs paper Table I");
    std::printf("\nHost sweep engine: %u execution lane(s) by default "
                "(override with RRS_THREADS); runs fan out through one "
                "parallelFor with bit-identical results at any lane "
                "count.\n",
                ThreadPool::defaultThreadCount());
    bench::finish();
    return 0;
}

/**
 * @file
 * DDR3-1600-lite main memory timing model (the paper's Table I DRAM).
 *
 * Models what matters to a core-side study: per-bank row-buffer state
 * (open-row hits vs. row misses vs. row conflicts), bank busy times,
 * a shared data bus, and periodic refresh.  It is not a full
 * controller (no command scheduling / FR-FCFS reordering); requests
 * are serviced in arrival order per bank.
 */

#ifndef RRS_MEM_DRAM_HH
#define RRS_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace rrs::mem {

/** DRAM timing/geometry parameters (defaults: paper Table I @ 2 GHz). */
struct DramParams
{
    std::uint32_t ranks = 2;
    std::uint32_t banksPerRank = 8;
    std::uint32_t rowBytes = 8192;       //!< 8 KB row size

    // Timings in core cycles (13.75 ns * 2.0 GHz = 27.5 -> 28).
    Cycles tCas = 28;
    Cycles tRcd = 28;
    Cycles tRp = 28;
    Cycles burst = 4;                    //!< data transfer per 64B line
    Cycles tRefi = 15600;                //!< 7.8 us * 2 GHz
    Cycles refreshCycles = 360;          //!< tRFC in core cycles
};

/** Main memory: returns absolute completion ticks for line fills. */
class Dram
{
  public:
    explicit Dram(const DramParams &params);

    /**
     * Issue a 64-byte line access.
     * @param addr line address
     * @param now current tick
     * @return absolute tick at which the line is available
     */
    Tick access(Addr addr, Tick now);

  private:
    struct Bank
    {
        bool rowOpen = false;
        Addr openRow = 0;
        Tick readyAt = 0;
    };

    std::uint32_t bankIndex(Addr addr) const;
    Addr rowIndex(Addr addr) const;

    DramParams params;
    std::vector<Bank> banks;
    Tick busReadyAt = 0;
};

} // namespace rrs::mem

#endif // RRS_MEM_DRAM_HH

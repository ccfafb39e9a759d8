#include "dram.hh"

#include <algorithm>

#include "common/logging.hh"

namespace rrs::mem {

Dram::Dram(const DramParams &params)
    : params(params), banks(params.ranks * params.banksPerRank)
{
    rrs_assert(!banks.empty(), "DRAM needs at least one bank");
}

std::uint32_t
Dram::bankIndex(Addr addr) const
{
    // Interleave consecutive rows across banks.
    return static_cast<std::uint32_t>((addr / params.rowBytes) %
                                      banks.size());
}

Addr
Dram::rowIndex(Addr addr) const
{
    return addr / params.rowBytes / banks.size();
}

Tick
Dram::access(Addr addr, Tick now)
{
    Bank &bank = banks[bankIndex(addr)];
    const Addr row = rowIndex(addr);

    // Model refresh as a periodic window during which banks are busy.
    const Tick refiPhase = now % params.tRefi;
    Tick start = now;
    if (refiPhase < params.refreshCycles)
        start += params.refreshCycles - refiPhase;
    start = std::max(start, bank.readyAt);

    Cycles access_lat;
    if (bank.rowOpen && bank.openRow == row) {
        access_lat = params.tCas;   // row-buffer hit
    } else if (!bank.rowOpen) {
        access_lat = params.tRcd + params.tCas;   // row miss
    } else {
        access_lat = params.tRp + params.tRcd + params.tCas;   // conflict
    }
    bank.rowOpen = true;
    bank.openRow = row;

    // Serialise the data burst on the shared bus.
    Tick data_start = std::max(start + access_lat, busReadyAt);
    Tick done = data_start + params.burst;
    busReadyAt = done;
    bank.readyAt = start + access_lat;
    return done;
}

} // namespace rrs::mem

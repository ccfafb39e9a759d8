#include "stallcause.hh"

#include "common/logging.hh"

namespace rrs::obs {

const char *
cycleCauseName(CycleCause c)
{
    switch (c) {
      case CycleCause::Commit:      return "commit";
      case CycleCause::Drain:       return "drain";
      case CycleCause::RenameNoReg: return "renameNoReg";
      case CycleCause::RenameRob:   return "renameRob";
      case CycleCause::RenameIq:    return "renameIq";
      case CycleCause::RenameLsq:   return "renameLsq";
      case CycleCause::Frontend:    return "frontend";
      case CycleCause::BackendExec: return "backendExec";
    }
    return "unknown";
}

std::uint64_t
StallBreakdown::sum() const
{
    std::uint64_t s = 0;
    for (int i = 0; i < numCycleCauses; ++i)
        s += counts[i];
    return s;
}

void
CycleAccounting::verify(std::uint64_t totalCycles) const
{
    const std::uint64_t attributed = causes.sum();
    if (attributed != totalCycles) {
        rrs_panic("cycle accounting leak: %llu cycles attributed, "
                  "%llu simulated",
                  static_cast<unsigned long long>(attributed),
                  static_cast<unsigned long long>(totalCycles));
    }
}

} // namespace rrs::obs

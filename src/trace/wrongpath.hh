/**
 * @file
 * Wrong-path instruction synthesis.
 *
 * The timing model is trace-driven: the emulator only supplies
 * correct-path instructions.  Real wrong-path instructions matter to
 * this paper because they allocate physical registers, occupy issue
 * queue slots, and exercise the renamer's squash/undo machinery.  This
 * generator fabricates wrong-path instructions whose mix mimics the
 * recent correct-path history (a ring of recently seen static
 * instructions with re-randomised registers), which preserves the
 * resource pressure without needing wrong-path architectural state.
 */

#ifndef RRS_TRACE_WRONGPATH_HH
#define RRS_TRACE_WRONGPATH_HH

#include <vector>

#include "common/random.hh"
#include "trace/dyninst.hh"

namespace rrs::trace {

/** Generator of statistically matched wrong-path instructions. */
class WrongPathGenerator
{
  public:
    explicit WrongPathGenerator(std::uint64_t seed = 7,
                                std::size_t historySize = 256);

    /** Record a correct-path instruction into the mix history. */
    void observe(const DynInst &di);

    /**
     * Fabricate one wrong-path instruction at the given PC.  Branches
     * in the fabricated stream are marked not-taken so wrong-path fetch
     * runs ahead sequentially (predicted-taken wrong-path branches are
     * rare and would immediately redirect within the wrong path).
     */
    DynInst generate(Addr pc, InstSeqNum seq);

  private:
    Random rng;
    std::size_t historySize;
    std::vector<isa::StaticInst> history;
    std::size_t cursor = 0;
};

} // namespace rrs::trace

#endif // RRS_TRACE_WRONGPATH_HH

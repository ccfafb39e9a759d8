/**
 * @file
 * Shared figure/table renderers: the deterministic text blocks of the
 * paper artifacts that are regression-locked byte-for-byte.  The bench
 * binaries print these strings and the golden-table tests compare them
 * against the committed goldens (tests/goldens/), so a refactor that
 * changes a single digit — or a single space — fails in CI rather than
 * silently republishing a different table.
 *
 * Also home of the matrix-driven outcome grids: one parallel sweep per
 * grid, expanded from a declarative SweepMatrix in the deterministic
 * submission order documented in harness/sweepmatrix.hh.
 */

#ifndef RRS_HARNESS_FIGURES_HH
#define RRS_HARNESS_FIGURES_HH

#include <string>
#include <vector>

#include "area/area.hh"
#include "harness/sweepmatrix.hh"

namespace rrs::harness {

/** Baseline/proposed outcomes of one (workload, size) grid cell. */
struct OutcomePair
{
    Outcome base;
    Outcome prop;

    double
    speedup() const
    {
        return static_cast<double>(base.sim.cycles) /
               static_cast<double>(prop.sim.cycles);
    }
};

/**
 * Run a matrix over a workload list in one parallel sweep and return
 * the outcomes as grid[workload][size][scheme column], all in input /
 * document order.
 */
std::vector<std::vector<std::vector<Outcome>>> matrixOutcomeGrid(
    SweepRunner &runner, const std::vector<workloads::Workload> &ws,
    const SweepMatrix &m, std::uint64_t capDefault);

/**
 * Two-column view of a matrix grid as [workload][size] pairs: column 0
 * is the base, column 1 the proposed.  Fatal unless the matrix has
 * exactly two scheme columns.
 */
std::vector<std::vector<OutcomePair>> outcomePairGrid(
    SweepRunner &runner, const std::vector<workloads::Workload> &ws,
    const SweepMatrix &m, std::uint64_t capDefault);

/**
 * Figure 11's deterministic block: the geomean-IPC table, the
 * crossover analysis, and the shape-check note.
 *
 * Exact-mode output is golden-locked byte-for-byte.  When any outcome
 * of the grid is sampled the table gains ±95%-CI columns (the geomean
 * scaled by the average relative CI of its inputs) and an ASCII
 * whisker chart of the intervals — still deterministic, gated only on
 * the grid actually containing sampled runs.
 */
std::string renderFig11(const std::vector<std::uint32_t> &sizes,
                        const std::vector<std::vector<OutcomePair>> &grid);

/**
 * Figure 10's deterministic block: one speedup table per workload
 * suite (baseline cycles / proposed cycles per cell, GEOMEAN row) plus
 * the shape-check note — exactly the bytes the fig10 bench prints.
 *
 * Sampled grids switch each cell to "speedup±ci" derived from the
 * reported (mean) IPC ratio, with the two runs' relative CIs summed —
 * the conservative error for a ratio of independent estimates.
 */
std::string renderFig10(const std::vector<workloads::Workload> &ws,
                        const std::vector<std::uint32_t> &sizes,
                        const std::vector<std::vector<OutcomePair>> &grid);

/**
 * Table III's deterministic block: the equal-area configuration table
 * (paper rows, tuned rows, area-model verification, solver check) and
 * the shape-check note.
 */
std::string renderTable3(const area::AreaModel &model,
                         const std::vector<std::uint32_t> &sizes);

} // namespace rrs::harness

#endif // RRS_HARNESS_FIGURES_HH

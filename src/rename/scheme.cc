#include "scheme.hh"

#include <limits>

#include "common/logging.hh"

namespace rrs::rename {

namespace {

constexpr std::uint64_t u32Max = std::numeric_limits<std::uint32_t>::max();

/** The baseline (merged-file, release-on-commit) scheme plugin. */
class BaselineScheme : public RenameScheme
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "baseline";
        return n;
    }

    std::unique_ptr<Renamer>
    makeRenamer(const SchemeParams &params) const override
    {
        return std::make_unique<BaselineRenamer>(params.baseline);
    }

    void
    configureEqualArea(SchemeParams &params,
                       std::uint32_t baselineRegs) const override
    {
        params.baseline = BaselineParams{baselineRegs, baselineRegs};
    }

    SchemeAreaDescriptor
    areaDescriptor(const SchemeParams &params) const override
    {
        SchemeAreaDescriptor d;
        d.intBanks = {params.baseline.intRegs, 0, 0, 0};
        d.fpBanks = {params.baseline.fpRegs, 0, 0, 0};
        return d;
    }

    SchemeCounters
    counters(const Renamer &renamer) const override
    {
        const auto *rn =
            dynamic_cast<const BaselineRenamer *>(&renamer);
        rrs_assert(rn, "baseline scheme asked to read counters of a "
                       "renamer it did not build");
        SchemeCounters c;
        c.allocations = rn->allocationCount();
        c.historyPeak = rn->historyPeakEntries();
        return c;
    }

    bool
    setParam(SchemeParams &params, const std::string &key,
             double value) const override
    {
        const auto v = static_cast<std::uint32_t>(value);
        if (key == "regs") {
            params.baseline.intRegs = v;
            params.baseline.fpRegs = v;
        } else if (key == "int_regs") {
            params.baseline.intRegs = v;
        } else if (key == "fp_regs") {
            params.baseline.fpRegs = v;
        } else {
            return false;
        }
        return true;
    }

    std::vector<SchemeParamRange>
    paramRanges() const override
    {
        // Each class needs a physical register per logical one, plus
        // one free to rename into.
        return {{"regs", isa::numLogRegs + 1, u32Max},
                {"int_regs", isa::numLogRegs + 1, u32Max},
                {"fp_regs", isa::numLogRegs + 1, u32Max}};
    }
};

/** The paper's physical-register-sharing scheme plugin. */
class ReuseScheme : public RenameScheme
{
  public:
    const std::string &
    name() const override
    {
        static const std::string n = "reuse";
        return n;
    }

    std::unique_ptr<Renamer>
    makeRenamer(const SchemeParams &params) const override
    {
        return std::make_unique<ReuseRenamer>(params.reuse);
    }

    void
    configureEqualArea(SchemeParams &params,
                       std::uint32_t baselineRegs) const override
    {
        BankConfig banks = reuseEqualAreaBanks(baselineRegs);
        params.reuse.intBanks = banks;
        params.reuse.fpBanks = banks;
    }

    SchemeAreaDescriptor
    areaDescriptor(const SchemeParams &params) const override
    {
        SchemeAreaDescriptor d;
        d.intBanks = params.reuse.intBanks;
        d.fpBanks = params.reuse.fpBanks;
        d.prtCounterBits = params.reuse.counterBits;
        // Each of the two wakeup-matched source tags grows by the
        // version-counter width (paper: 4 extra bits at 2-bit
        // counters).
        d.iqExtraTagBits = 2u * params.reuse.counterBits;
        d.predictorEntries = params.reuse.predictor.entries;
        d.predictorBits = 2;
        return d;
    }

    SchemeCounters
    counters(const Renamer &renamer) const override
    {
        const auto *rn = dynamic_cast<const ReuseRenamer *>(&renamer);
        rrs_assert(rn, "reuse scheme asked to read counters of a "
                       "renamer it did not build");
        SchemeCounters c;
        c.allocations = rn->allocationCount();
        c.reuses = rn->reuseCount();
        c.repairs = rn->repairCount();
        c.historyPeak = rn->historyPeakEntries();
        c.fig12 = rn->fig12Counts();
        return c;
    }

    bool
    setParam(SchemeParams &params, const std::string &key,
             double value) const override
    {
        auto &p = params.reuse;
        if (key == "counter_bits") {
            p.counterBits = static_cast<std::uint8_t>(value);
        } else if (key == "predictor_entries") {
            p.predictor.entries = static_cast<std::uint32_t>(value);
        } else if (key == "reuse_non_redef") {
            p.reuseNonRedef = value != 0;
        } else if (key == "reuse_enabled") {
            p.reuseEnabled = value != 0;
        } else if (key == "non_redef_confidence") {
            p.nonRedefConfidence = static_cast<std::uint8_t>(value);
        } else if (key == "bank0" || key == "bank1" || key == "bank2" ||
                   key == "bank3") {
            const auto i = static_cast<std::size_t>(key[4] - '0');
            p.intBanks[i] = static_cast<std::uint32_t>(value);
            p.fpBanks[i] = static_cast<std::uint32_t>(value);
        } else {
            return false;
        }
        return true;
    }

    std::vector<SchemeParamRange>
    paramRanges() const override
    {
        // ReuseRenamer takes 1..4-bit version counters, and the type
        // predictor needs an entry.
        return {{"counter_bits", 1, 4},
                {"predictor_entries", 1, u32Max},
                {"reuse_non_redef", 0, 1},
                {"reuse_enabled", 0, 1},
                {"non_redef_confidence", 0, 255},
                {"bank0", 0, u32Max},
                {"bank1", 0, u32Max},
                {"bank2", 0, u32Max},
                {"bank3", 0, u32Max}};
    }
};

/**
 * Every rename scheme, in registeredRenameSchemes() order.  A new
 * scheme is one more entry here.
 */
const std::vector<const RenameScheme *> &
schemeTable()
{
    static const BaselineScheme baseline;
    static const ReuseScheme reuse;
    static const std::vector<const RenameScheme *> table = {&baseline,
                                                           &reuse};
    return table;
}

} // namespace

const RenameScheme *
findRenameScheme(const std::string &name)
{
    for (const RenameScheme *s : schemeTable()) {
        if (s->name() == name)
            return s;
    }
    return nullptr;
}

const RenameScheme &
renameScheme(const std::string &name)
{
    const RenameScheme *s = findRenameScheme(name);
    if (!s) {
        std::string known;
        for (const auto &n : registeredRenameSchemes())
            known += (known.empty() ? "" : ", ") + n;
        rrs_fatal("unknown rename scheme '%s' (registered: %s)",
                  name.c_str(), known.c_str());
    }
    return *s;
}

std::vector<std::string>
registeredRenameSchemes()
{
    std::vector<std::string> names;
    for (const RenameScheme *s : schemeTable())
        names.push_back(s->name());
    return names;
}

const std::vector<EqualAreaPreset> &
reuseEqualAreaPresets(bool paperPreset)
{
    // Paper Table III: baseline size -> {0-sh, 1-sh, 2-sh, 3-sh}.
    static const std::vector<EqualAreaPreset> paper = {
        {48, {28, 4, 4, 4}},
        {56, {28, 6, 6, 6}},
        {64, {36, 6, 6, 6}},
        {72, {36, 8, 8, 8}},
        {80, {42, 8, 8, 8}},
        {96, {58, 8, 8, 8}},
        {112, {75, 8, 8, 8}},
    };
    // Shadow-bank shapes follow this repo's Fig. 9 study (depth-1
    // reuse dominates); bank 0 is solved for equal area with the
    // calibrated model: at the core's 12R/6W port counts a shadow cell
    // costs ~0.11 of a fully-ported register bit-for-bit.
    static const std::vector<EqualAreaPreset> tuned = {
        {48, {34, 8, 2, 2}},
        {56, {39, 8, 3, 3}},
        {64, {47, 8, 3, 3}},
        {72, {53, 10, 3, 3}},
        {80, {61, 10, 3, 3}},
        {96, {72, 12, 4, 4}},
        {112, {88, 12, 4, 4}},
    };
    return paperPreset ? paper : tuned;
}

BankConfig
reuseEqualAreaBanks(std::uint32_t baselineRegs, bool paperPreset)
{
    const auto &rows = reuseEqualAreaPresets(paperPreset);
    const EqualAreaPreset *best = nullptr;
    for (const auto &row : rows) {
        if (row.baselineRegs == baselineRegs)
            return row.banks;
        auto dist = [&](const EqualAreaPreset &r) {
            return r.baselineRegs > baselineRegs
                       ? r.baselineRegs - baselineRegs
                       : baselineRegs - r.baselineRegs;
        };
        if (!best || dist(row) < dist(*best))
            best = &row;
    }
    rrs_assert(best != nullptr, "no equal-area presets");
    return best->banks;
}

} // namespace rrs::rename

/**
 * @file
 * Branch prediction substrate: a gshare/bimodal direction predictor, a
 * set-associative branch target buffer, and a return address stack,
 * wrapped in a single BranchPredictor the fetch stage consults.
 *
 * Matches the paper's Table I front end: 2K-entry BTB and a 15-cycle
 * misprediction redirect penalty (the penalty itself is charged by the
 * core, not here).
 */

#ifndef RRS_BPRED_BPRED_HH
#define RRS_BPRED_BPRED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/isa.hh"

namespace rrs::bpred {

/** Direction predictor flavour. */
enum class DirPredictor : std::uint8_t {
    Bimodal,
    GShare,
};

/** Configuration of the whole branch prediction unit. */
struct BPredParams
{
    DirPredictor kind = DirPredictor::GShare;
    std::uint32_t tableEntries = 4096;   //!< 2-bit counters
    std::uint32_t historyBits = 12;      //!< gshare global history length
    std::uint32_t btbEntries = 2048;     //!< Table I: 2K BTB
    std::uint32_t btbAssoc = 4;
    std::uint32_t rasEntries = 16;
};

/**
 * What fetch gets back from a lookup.  The snapshot fields let the core
 * restore speculative predictor state when the branch squashes.
 */
struct Prediction
{
    bool taken = false;          //!< predicted direction
    Addr target = invalidAddr;   //!< predicted target (invalid: fall thru)
    bool btbHit = false;
    std::uint64_t historySnapshot = 0;  //!< global history before update
    std::uint32_t rasSnapshot = 0;      //!< RAS top-of-stack before update
};

/** Set-associative branch target buffer with LRU replacement. */
class BTB
{
  public:
    BTB(std::uint32_t entries, std::uint32_t assoc);

    /** Look up a fetch PC; returns invalidAddr on miss. */
    Addr lookup(Addr pc) const;

    /** Install / refresh a target. */
    void update(Addr pc, Addr target);

  private:
    struct Entry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lru = 0;
    };

    std::uint32_t sets;
    std::uint32_t assoc;
    mutable std::uint64_t lruTick = 0;
    std::vector<Entry> entries;

    std::uint32_t setIndex(Addr pc) const;
};

/** Return address stack (circular, silently wraps like hardware). */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(std::uint32_t entries);

    void push(Addr returnPc);
    Addr pop();
    Addr top() const;

    /** Top-of-stack pointer, checkpointed at predictions. */
    std::uint32_t tos() const { return topPtr; }

    /** Restore the checkpointed top-of-stack pointer on a squash. */
    void restore(std::uint32_t tosSnapshot) { topPtr = tosSnapshot; }

  private:
    std::vector<Addr> stack;
    std::uint32_t topPtr = 0;
};

/**
 * The complete branch prediction unit.
 *
 * Speculative global history: predict() shifts the predicted direction
 * into the history immediately (so back-to-back predictions see it) and
 * the snapshot in the returned Prediction allows squash() to rewind.
 * Counter tables are updated non-speculatively via update().
 */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BPredParams &params);

    /** Predict a control instruction at fetch. */
    Prediction predict(Addr pc, isa::BranchKind kind);

    /**
     * Train with the resolved outcome (called at commit).
     * @param kind control kind; conditional branches train the
     *        direction tables, everything trains the BTB.
     * @param historyAtPredict the historySnapshot from the Prediction,
     *        so gshare trains the counter it actually read.
     */
    void update(Addr pc, isa::BranchKind kind, bool taken, Addr target,
                std::uint64_t historyAtPredict = 0);

    /** Rewind speculative state after a squash. */
    void squash(const Prediction &snapshot);

    /**
     * Rewind to the snapshot and then shift in the *actual* direction:
     * used when a conditional branch itself mispredicted, so younger
     * (squashed) speculative history disappears but the resolved branch
     * stays in the history.
     */
    void correctHistory(const Prediction &snapshot, bool actualTaken);

    /** Fraction of conditional predictions that were correct so far. */
    double condAccuracy() const;

    /** Record whether a prediction turned out correct (condAccuracy). */
    void recordResolution(isa::BranchKind kind, bool correct);

  private:
    std::uint32_t tableIndex(Addr pc) const;

    BPredParams params;
    std::vector<std::uint8_t> counters;  //!< 2-bit saturating
    std::uint64_t globalHistory = 0;
    BTB btb;
    ReturnAddressStack ras;

    std::uint64_t condLookups = 0;   //!< conditional predictions made
    std::uint64_t condCorrect = 0;   //!< ... that resolved correct
};

} // namespace rrs::bpred

#endif // RRS_BPRED_BPRED_HH

#include "o3core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace rrs::core {

using isa::BranchKind;
using isa::InstClass;

namespace {

/** A rename result's destination, as observers see it. */
obs::DestTag
destOf(const rename::RenameResult &rr)
{
    if (!rr.hasDest)
        return {};
    return {rr.destTag.cls, rr.destTag.reg, rr.destTag.version};
}

/** Drop the positions at or past `end` from a program-order list. */
void
dropFrom(std::vector<std::uint64_t> &list, std::uint64_t end)
{
    while (!list.empty() && list.back() >= end)
        list.pop_back();
}

} // namespace

O3Core::O3Core(const CoreParams &params, rename::Renamer &renamer,
               mem::MemSystem &mem, bpred::BranchPredictor &bp,
               trace::InstStream &stream)
    : params(params), renamer(renamer),
      memSys(mem), bpred(bp), stream(stream),
      wrongPath(params.seed ^ 0xabcdef, 256), rng(params.seed),
      ring(std::bit_ceil(std::max<std::size_t>(
          std::size_t{params.robEntries} + params.fetchQueueEntries, 1))),
      ringMask(ring.size() - 1),
      indexer(renamer.tagIndexer()),
      regReadyAt(indexer.size(), 0),
      tagProduced([this](const rename::PhysRegTag &tag) {
          return tagReady(tag);
      }),
      fuIntAlu(params.fu.intAlu, 0), fuIntMulDiv(params.fu.intMulDiv, 0),
      fuFpAlu(params.fu.fpAlu, 0), fuFpMulDiv(params.fu.fpMulDiv, 0),
      fuMem(params.fu.memPorts, 0)
{
    if (params.interruptInterval > 0)
        nextInterrupt = params.interruptInterval;
}

std::uint32_t
O3Core::tagIndex(const rename::PhysRegTag &tag) const
{
    return indexer(tag);
}

bool
O3Core::tagReady(const rename::PhysRegTag &tag) const
{
    return regReadyAt[tagIndex(tag)] <= now;
}

void
O3Core::setTagReady(const rename::PhysRegTag &tag, Tick when)
{
    regReadyAt[tagIndex(tag)] = when;
}

void
O3Core::setTagPending(const rename::PhysRegTag &tag)
{
    regReadyAt[tagIndex(tag)] = ~Tick{0};
}

bool
O3Core::srcsReady(const InFlight &inst) const
{
    for (int s = 0; s < inst.rr.numSrcTags; ++s) {
        const rename::PhysRegTag &tag =
            inst.rr.srcTags[static_cast<std::size_t>(s)];
        if (tag.valid() && !tagReady(tag))
            return false;
    }
    return true;
}

bool
O3Core::loadMayIssue(std::uint64_t pos, Tick *forwardReady) const
{
    *forwardReady = 0;
    // Scan older stores: unknown addresses block; overlapping known
    // addresses forward.  A store's address is known once it completes.
    const InFlight &inst = at(pos);
    const Addr lo = inst.di.effAddr;
    const Addr hi = lo + inst.meta.memBytes;
    bool forward = false;
    for (std::uint64_t storePos : stores) {
        if (storePos >= pos)
            break;
        const InFlight &other = at(storePos);
        if (!other.completed)
            return false;   // conservative: address unknown
        if (other.wrongPath)
            continue;       // synthetic store, no real data
        Addr olo = other.di.effAddr;
        Addr ohi = olo + other.meta.memBytes;
        if (lo < ohi && olo < hi) {
            forward = true;
            *forwardReady = std::max(*forwardReady, other.readyAt);
        }
    }
    if (forward && *forwardReady == 0)
        *forwardReady = now;
    if (!forward)
        *forwardReady = 0;
    return true;
}

bool
O3Core::scheduleCompletion(std::uint64_t pos)
{
    InFlight &inst = at(pos);
    const FuParams &fu = params.fu;
    auto grab = [&](std::vector<Tick> &pool, Cycles occupy,
                    Cycles latency) -> bool {
        for (auto &busy : pool) {
            if (busy <= now) {
                busy = now + occupy;
                inst.readyAt = now + latency;
                return true;
            }
        }
        return false;
    };

    bool ok = false;
    switch (inst.meta.cls) {
      case InstClass::IntAlu:
      case InstClass::Branch:
        ok = grab(fuIntAlu, 1, fu.intAluLat);
        break;
      case InstClass::IntMult:
        ok = grab(fuIntMulDiv, 1, fu.intMultLat);
        break;
      case InstClass::IntDiv:
        ok = grab(fuIntMulDiv, fu.intDivLat, fu.intDivLat);
        break;
      case InstClass::FpAlu:
        ok = grab(fuFpAlu, 1, fu.fpAluLat);
        break;
      case InstClass::FpMult:
        ok = grab(fuFpMulDiv, 1, fu.fpMultLat);
        break;
      case InstClass::FpDiv:
        ok = grab(fuFpMulDiv, fu.fpDivLat, fu.fpDivLat);
        break;
      case InstClass::Load: {
        if (inst.wrongPath) {
            ok = grab(fuMem, 1, fu.wrongPathLoadLat);
            break;
        }
        Tick fwd = 0;
        if (!loadMayIssue(pos, &fwd))
            break;
        for (auto &busy : fuMem) {
            if (busy <= now) {
                busy = now + 1;
                if (fwd) {
                    inst.readyAt = std::max(now, fwd) + fu.forwardLat;
                } else {
                    inst.readyAt = memSys.dataAccess(
                        inst.di.pc, inst.di.effAddr, false, now);
                }
                ok = true;
                break;
            }
        }
        break;
      }
      case InstClass::Store:
        ok = grab(fuMem, 1, fu.storeLat);
        break;
      case InstClass::Nop:
        inst.readyAt = now;
        ok = true;
        break;
    }
    return ok;
}

void
O3Core::squashRobEntry(const InFlight &victim)
{
    // Victims go youngest first, so a store is the store list's back.
    if (victim.meta.isLoad())
        --loadsInFlight;
    if (victim.meta.isStore())
        stores.pop_back();
    notify([&](obs::CoreObserver &o) { o.squash(victim.di.seq, now); });
}

void
O3Core::squashFetchQueue()
{
    for (std::uint64_t pos = robTail; pos != fetchTail; ++pos)
        notify([&](obs::CoreObserver &o) { o.squash(at(pos).di.seq, now); });
    fetchTail = robTail;
}

std::uint32_t
O3Core::squashFrom(std::uint64_t pos, std::uint64_t flushSeq,
                   rename::HistoryToken token)
{
    // Squash every slot at or past `pos`: ROB entries youngest first,
    // then the un-renamed fetch queue oldest first.  Replaying
    // correct-path ones is unnecessary for mispredicts (all younger are
    // wrong-path) and handled by the caller for flushes.
    for (std::uint64_t victim = robTail; victim > pos; --victim)
        squashRobEntry(at(victim - 1));
    squashFetchQueue();
    robTail = fetchTail = pos;
    lastFetchLine = invalidAddr;
    dropFrom(iq, pos);
    dropFrom(executing, pos);

    const std::uint32_t rec = renamer.squashTo(token, tagProduced);
    notify([&](obs::CoreObserver &o) {
        o.flush(obs::FlushScope::Younger, flushSeq, now);
    });
    return rec;
}

void
O3Core::resolveBranch(std::uint64_t pos)
{
    const InFlight &inst = at(pos);
    const BranchKind kind = inst.meta.branch;
    bpred.recordResolution(kind, !inst.mispredicted);
    if (!inst.mispredicted)
        return;

    ++branchMispredicts;
    const std::uint32_t rec =
        squashFrom(pos + 1, inst.di.seq, inst.rr.endToken);

    // Repair the speculative predictor state.
    if (kind == BranchKind::Cond) {
        bpred.correctHistory(inst.pred, inst.di.taken);
    } else {
        bpred.squash(inst.pred);
        // Redo the RAS effect of the resolved instruction itself.
        auto redo = bpred.predict(inst.di.pc, kind);
        (void)redo;
    }

    onWrongPath = false;
    Cycles rec_cycles = rec * params.recoverCmdCycles;
    recoveryCycles += rec_cycles;
    // Redirect: any previous fetch block (icache miss on the wrong
    // path, or the no-wrong-path stall sentinel) is void.
    fetchBlockedUntil = now + params.mispredictPenalty + rec_cycles;
}

void
O3Core::flushAll(Cycles extraPenalty)
{
    if (robHead == fetchTail)
        return;

    // Rewind the branch predictor to the oldest squashed prediction.
    for (std::uint64_t pos = robHead; pos != fetchTail; ++pos) {
        if (at(pos).meta.isControl()) {
            bpred.squash(at(pos).pred);
            break;
        }
    }

    // Correct-path instructions must be refetched after the flush:
    // queue them ahead of the stream, in program order.
    for (std::uint64_t pos = fetchTail; pos != robHead; --pos) {
        if (!at(pos - 1).wrongPath)
            replayBuffer.push_front(at(pos - 1).di);
    }

    // Squash everything including the head.  The Younger event names
    // the seq before the head (0 when the head is the run's first).
    std::uint32_t rec = 0;
    if (robEmpty()) {
        squashFetchQueue();
    } else {
        const InFlight &head = at(robHead);
        rec = squashFrom(robHead, std::max<std::uint64_t>(head.di.seq, 1) - 1,
                         head.rr.token);
    }
    notify([&](obs::CoreObserver &o) {
        o.flush(obs::FlushScope::All, 0, now);
    });

    // Recover committed values that live in shadow cells.
    std::uint32_t committed_rec = renamer.committedShadowValues();
    Cycles rec_cycles =
        (rec + committed_rec) * params.recoverCmdCycles + extraPenalty;
    recoveryCycles += (rec + committed_rec) * params.recoverCmdCycles;
    // Assignment, not max: the flush redirects fetch, voiding any
    // earlier block (including the no-wrong-path stall sentinel of a
    // mispredicted branch this flush just squashed).
    fetchBlockedUntil = now + rec_cycles;

    onWrongPath = false;
    lastFetchLine = invalidAddr;
}

bool
O3Core::commitStage()
{
    committedThisCycle = 0;
    if (params.interruptInterval > 0 && now >= nextInterrupt) {
        nextInterrupt += params.interruptInterval;
        if (robHead != fetchTail) {
            ++interruptsTaken;
            flushAll(params.exceptionPenalty +
                     params.interruptServiceCycles);
        }
        // Otherwise the pipeline is empty and nothing can commit; the
        // schedule moved on, so the cycle is not quiet either way.
        return true;
    }

    std::uint32_t n = 0;
    while (n < params.commitWidth && !robEmpty()) {
        InFlight &head = at(robHead);
        if (!head.completed)
            break;
        rrs_assert(!head.wrongPath,
                   "wrong-path instruction reached commit");

        bool faulted = head.faulting;
        if (faulted) {
            ++exceptionsTaken;
            head.faulting = false;
        }

        renamer.commit(head.rr);
        if (head.meta.isStore())
            memSys.dataAccess(head.di.pc, head.di.effAddr, true, now);
        if (head.meta.isControl()) {
            Addr target = head.di.taken ? head.di.nextPc : invalidAddr;
            bpred.update(head.di.pc, head.meta.branch,
                         head.di.taken, target,
                         head.pred.historySnapshot);
        }
        if (head.meta.isLoad())
            --loadsInFlight;
        if (head.meta.isStore())
            stores.pop_front();

        ++committedThisCycle;
        simResult.committedInsts += 1;
        simResult.committedOps += 1 + head.rr.repairUops;
        lastCommitTick = now;
        ++n;
        notify([&](obs::CoreObserver &o) {
            o.commit(head.di.seq, destOf(head.rr), now);
        });
        ++robHead;

        if (faulted) {
            // Precise exception: everything younger is flushed and the
            // committed register state (possibly in shadow cells) is
            // recovered before the handler runs.
            flushAll(params.exceptionPenalty);
            break;
        }
        if (params.maxInsts > 0 &&
            simResult.committedInsts >= params.maxInsts) {
            finished = true;
            break;
        }
    }
    return committedThisCycle > 0;
}

bool
O3Core::writebackStage()
{
    // Oldest first, at most wbWidth completions; ready entries past the
    // width wait for the next cycle.  Compacts `executing` in place.
    std::uint32_t n = 0;
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < executing.size() && n < params.wbWidth; ++i) {
        const std::uint64_t pos = executing[i];
        InFlight &inst = at(pos);
        if (inst.readyAt > now) {
            executing[kept++] = pos;
            continue;
        }
        inst.completed = true;
        ++n;
        notify([&](obs::CoreObserver &o) { o.complete(inst.di.seq, now); });
        if (inst.rr.hasDest)
            setTagReady(inst.rr.destTag, now);
        if (inst.mispredicted) {
            // Everything after it is younger and gets squashed.
            executing.resize(kept);
            resolveBranch(pos);
            return true;
        }
        if (inst.meta.isControl())
            resolveBranch(pos);
    }
    executing.erase(executing.begin() + kept, executing.begin() + i);
    return n > 0;
}

bool
O3Core::issueStage()
{
    // Oldest first, at most issueWidth issues.  Compacts the IQ in
    // place; an issued entry joins `executing` in program order.
    std::uint32_t budget = params.issueWidth;
    std::size_t kept = 0;
    std::size_t i = 0;
    for (; i < iq.size() && budget > 0; ++i) {
        const std::uint64_t pos = iq[i];
        if (!srcsReady(at(pos)) || !scheduleCompletion(pos)) {
            iq[kept++] = pos;
            continue;
        }
        --budget;
        executing.insert(
            std::upper_bound(executing.begin(), executing.end(), pos), pos);
        notify([&](obs::CoreObserver &o) { o.issue(at(pos).di.seq, now); });
    }
    iq.erase(iq.begin() + kept, iq.begin() + i);
    return budget < params.issueWidth;
}

bool
O3Core::renameStage()
{
    renameBlock = RenameBlock::None;
    const std::uint64_t firstPos = robTail;
    std::uint32_t width = params.renameWidth;
    while (width > 0 && !fetchQueueEmpty()) {
        // Rename works on the fetch queue's head slot in place; a
        // failed attempt leaves it in the fetch queue.
        InFlight &inst = at(robTail);
        if (robSize() >= params.robEntries) {
            renameBlock = RenameBlock::Rob;
            break;
        }
        bool needs_iq = inst.meta.cls != InstClass::Nop;
        if (needs_iq && iq.size() >= params.iqEntries) {
            renameBlock = RenameBlock::Iq;
            break;
        }
        if (inst.meta.isLoad() &&
            loadsInFlight >= params.loadQueueEntries) {
            renameBlock = RenameBlock::Lsq;
            break;
        }
        if (inst.meta.isStore() &&
            stores.size() >= params.storeQueueEntries) {
            renameBlock = RenameBlock::Lsq;
            break;
        }

        inst.rr = renamer.rename(inst.di, tagProduced);
        const rename::RenameResult &rr = inst.rr;
        if (!rr.success) {
            // A failed rename changes nothing, so the core counts the
            // stalled cycle itself (and skipped ones in bulk).
            renameBlock = RenameBlock::NoReg;
            ++renameStalls;
            break;
        }

        // Repair micro-ops consume rename bandwidth and produce their
        // destination a few cycles after the stale value is available.
        for (int r = 0; r < rr.numRepairs; ++r) {
            const auto &rep = rr.repairList[static_cast<std::size_t>(r)];
            Tick src_ready = regReadyAt[tagIndex(rep.fromTag)];
            if (src_ready == ~Tick{0})
                src_ready = now;   // producer squashed: value archival
            setTagReady(rep.toTag, std::max(now, src_ready) + rep.uops);
        }
        if (rr.repairUops >= width)
            width = 1;   // at least finish this instruction
        else
            width -= rr.repairUops;

        // The watchdog times commit-less cycles with work in the ROB,
        // so the first instruction into an empty ROB restarts it.
        if (robEmpty())
            lastCommitTick = now;
        const std::uint64_t pos = robTail++;
        if (rr.hasDest)
            setTagPending(rr.destTag);

        if (inst.meta.isLoad())
            ++loadsInFlight;
        if (inst.meta.isStore())
            stores.push_back(pos);

        notify([&](obs::CoreObserver &o) {
            o.rename(inst.di.seq, destOf(rr), now);
        });
        if (needs_iq) {
            iq.push_back(pos);
        } else {
            inst.completed = true;
            inst.readyAt = now;
            notify([&](obs::CoreObserver &o) { o.issue(inst.di.seq, now); });
            notify([&](obs::CoreObserver &o) { o.complete(inst.di.seq, now); });
        }
        --width;
    }
    return robTail != firstPos;
}

bool
O3Core::fetchStage()
{
    if (now < fetchBlockedUntil)
        return false;

    std::uint32_t fetched = 0;
    bool pulled = false;   // a pull moves the stream even when it ends
    while (fetched < params.fetchWidth &&
           fetchTail - robTail < params.fetchQueueEntries) {
        // Pick the next instruction: wrong path, replay, or stream.
        // Every path takes its pre-decoded metadata from the one-time
        // classifier, so timing does not depend on the stream's kind.
        trace::DynInst di;
        bool from_stream = false;
        if (onWrongPath) {
            di = wrongPath.generate(wrongPathPc, nextFetchSeq);
            wrongPathPc = di.nextPc;
        } else if (!replayBuffer.empty()) {
            di = replayBuffer.front();
        } else {
            if (!pendingInst && !streamDone) {
                pendingInst = stream.next();
                streamDone = !pendingInst;
                pulled = true;
            }
            if (!pendingInst)
                break;
            di = *pendingInst;
            from_stream = true;
        }
        const isa::PackedMeta &meta = isa::packedMeta(di.si.op);

        // Instruction cache: one access per new line.
        Addr line = di.pc / 64;
        if (line != lastFetchLine) {
            Tick done = memSys.fetchAccess(di.pc, now);
            lastFetchLine = line;
            if (done > now + 1) {
                fetchBlockedUntil = done;
                return true;   // line arrives later; retry then
            }
        }

        // Accept the instruction.
        if (from_stream)
            pendingInst.reset();
        else if (!onWrongPath)
            replayBuffer.pop_front();

        // Write the fetch queue's tail slot in place.  `pred` is set
        // only for control instructions and `rr` only at rename.
        InFlight &inst = at(fetchTail);
        inst.di = di;
        inst.di.seq = nextFetchSeq++;
        inst.meta = meta;
        inst.mispredicted = false;
        inst.wrongPath = onWrongPath;
        inst.faulting = false;
        inst.completed = false;
        inst.readyAt = 0;

        bool group_ends = false;
        if (meta.isControl()) {
            bpred::Prediction p = bpred.predict(di.pc, meta.branch);
            inst.pred = p;
            if (!inst.wrongPath) {
                Addr pred_next =
                    p.taken && p.target != invalidAddr
                        ? p.target
                        : di.pc + isa::instBytes;
                // Direct unconditional branches and calls resolve their
                // target at decode; a BTB miss there is not a
                // misprediction.
                const BranchKind kind = meta.branch;
                if ((kind == BranchKind::Uncond ||
                     kind == BranchKind::Call) && !p.btbHit) {
                    pred_next = di.nextPc;
                }
                if (pred_next != di.nextPc) {
                    inst.mispredicted = true;
                    if (params.modelWrongPath) {
                        onWrongPath = true;
                        wrongPathPc = pred_next;
                    } else {
                        // No wrong-path modelling: stall fetch until
                        // resolution (handled via the redirect penalty).
                        fetchBlockedUntil = ~Tick{0} - (1u << 20);
                    }
                    group_ends = true;
                } else if (di.taken) {
                    group_ends = true;   // taken branches end the group
                }
            } else if (p.taken && p.target != invalidAddr) {
                wrongPathPc = p.target;
            }
        }

        // Page-fault injection on correct-path loads.
        if (!inst.wrongPath && meta.isLoad() &&
            params.loadFaultProbability > 0 &&
            rng.chance(params.loadFaultProbability)) {
            inst.faulting = true;
        }

        if (!inst.wrongPath)
            wrongPath.observe(di);

        notify([&](obs::CoreObserver &o) { o.fetch(inst.di.seq, di, now); });
        ++fetchTail;
        ++fetched;
        if (group_ends)
            break;
    }
    return fetched > 0 || pulled;
}

obs::CycleCause
O3Core::accountCycle()
{
    using obs::CycleCause;
    CycleCause cause;
    if (committedThisCycle > 0) {
        cause = CycleCause::Commit;
    } else if (streamDone && !pendingInst && replayBuffer.empty() &&
               !onWrongPath && fetchQueueEmpty()) {
        // Nothing left to fetch, ever: the backend is draining the
        // tail of the run.
        cause = CycleCause::Drain;
    } else if (renameBlock == RenameBlock::NoReg) {
        cause = CycleCause::RenameNoReg;
    } else if (renameBlock == RenameBlock::Rob) {
        cause = CycleCause::RenameRob;
    } else if (renameBlock == RenameBlock::Iq) {
        cause = CycleCause::RenameIq;
    } else if (renameBlock == RenameBlock::Lsq) {
        cause = CycleCause::RenameLsq;
    } else if (robEmpty()) {
        cause = CycleCause::Frontend;
    } else {
        cause = CycleCause::BackendExec;
    }
    cycleCauses.attribute(cause);
    return cause;
}

Tick
O3Core::nextEventTick() const
{
    // After a quiet cycle the pipeline is what it was when the cycle
    // began, so the next cycle that can differ is the first one at
    // which a stage's test against `now` flips.  Each term below is
    // such a tick; a term before `now` flipped already.  Nothing found
    // (pending forever) leaves the clock alone.
    Tick next = ~Tick{0};
    auto consider = [&](Tick t) {
        if (t >= now && t < next)
            next = t;
    };
    for (std::uint64_t pos : executing)
        consider(at(pos).readyAt);   // writeback
    for (const std::vector<Tick> *pool :
         {&fuIntAlu, &fuIntMulDiv, &fuFpAlu, &fuFpMulDiv, &fuMem}) {
        for (Tick busy : *pool)
            consider(busy);          // a ready entry refused a unit
    }
    consider(fetchBlockedUntil);
    if (params.interruptInterval > 0)
        consider(nextInterrupt);
    if (!robEmpty())   // the watchdog panics on the same cycle as ever
        consider(lastCommitTick + params.deadlockThreshold + 1);
    if (next == now)
        return next;
    for (std::uint64_t pos : iq) {
        // An entry whose sources are all known is ready at the latest
        // of their ticks (a repair move sets future ones).  A pending
        // source reads ~0, which never wins: its producer's own issue
        // or completion comes first.
        const InFlight &inst = at(pos);
        Tick ready = 0;
        for (int s = 0; s < inst.rr.numSrcTags; ++s) {
            const rename::PhysRegTag &tag =
                inst.rr.srcTags[static_cast<std::size_t>(s)];
            if (tag.valid())
                ready = std::max(ready, regReadyAt[tagIndex(tag)]);
        }
        consider(ready);
    }
    return next == ~Tick{0} ? now : next;
}

void
O3Core::skipQuietCycles(obs::CycleCause cause)
{
    // Every cycle before the next event would repeat the quiet one:
    // the same cause, the same failed rename retry.
    const Tick k = nextEventTick() - now;
    now += k;
    cycles += k;
    skipped += k;
    cycleCauses.attribute(cause, k);
    if (renameBlock == RenameBlock::NoReg)
        renameStalls += k;
}

SimResult
O3Core::run()
{
    simResult = SimResult{};
    finished = false;
    // From `now`, not 0: windowed mode re-enters run() with the clock
    // already advanced, and an absolute-zero watermark would trip the
    // deadlock panic spuriously.  First call: now == 0, identical.
    lastCommitTick = now;

    while (!finished) {
        bool active = commitStage();
        if (finished)
            break;
        active |= writebackStage();
        active |= issueStage();
        active |= renameStage();
        active |= fetchStage();

        const obs::CycleCause cause = accountCycle();
        notify([&](obs::CoreObserver &o) { o.sample(now); });

        ++now;
        ++cycles;

        if (streamDone && robHead == fetchTail &&
            replayBuffer.empty() && !pendingInst) {
            finished = true;
        }
        // A cycle that changed nothing repeats until the next event.
        // Observers see every cycle, so skip only with none attached.
        if (!active && !finished && observers.empty())
            skipQuietCycles(cause);
        simResult.cycles = now;
        if (!robEmpty() &&
            now - lastCommitTick > params.deadlockThreshold) {
            rrs_panic("core deadlock: no commit for %llu cycles; head %s",
                      static_cast<unsigned long long>(
                          now - lastCommitTick),
                      at(robHead).di.si.toString().c_str());
        }
    }
    // Every simulated cycle must have been attributed to exactly one
    // cause; a leak here means a new stall path bypassed accounting.
    cycleCauses.verify(cycles);
    notify([](obs::CoreObserver &o) { o.endRun(); });
    return simResult;
}

SimResult
O3Core::runWindow(std::uint64_t insts)
{
    const std::uint64_t savedMax = params.maxInsts;
    params.maxInsts = insts;
    const Tick start = now;
    SimResult r = run();   // commit counts are per-run() already
    params.maxInsts = savedMax;
    r.cycles = now - start;
    return r;
}

void
O3Core::discardInFlight()
{
    // flushAll squashes wrong-path work, rolls the renamer back
    // through its history and recovers shadow cells — exactly the
    // abandon-the-window semantics needed — but it also queues the
    // correct-path instructions for refetch; windowed mode re-seeks
    // the stream to the commit point instead, so drop them.
    flushAll(0);
    replayBuffer.clear();
    pendingInst.reset();
    onWrongPath = false;
    streamDone = false;
    finished = false;
    lastFetchLine = invalidAddr;
    fetchBlockedUntil = now;
}

void
O3Core::advanceClock(Tick to)
{
    if (to <= now)
        return;
    now = to;
    // Resync the timer-interrupt schedule: without this a long warm
    // jump would deliver one pending interrupt per window cycle until
    // the schedule caught up.
    if (params.interruptInterval > 0) {
        while (nextInterrupt <= now)
            nextInterrupt += params.interruptInterval;
    }
    lastCommitTick = now;
}

} // namespace rrs::core

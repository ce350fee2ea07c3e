#include "pipeline/core.hh"

#include <algorithm>
#include <limits>

#include "common/check.hh"
#include "common/logging.hh"

namespace lvpsim
{
namespace pipe
{

using trace::MicroOp;
using trace::OpClass;

Core::Core(const CoreConfig &config,
           const std::vector<trace::MicroOp> &trace_code,
           LoadValuePredictor *predictor)
    : cfg(config), code(trace_code),
      vp(predictor ? predictor : &nullVp), memory(cfg.memory),
      tage(cfg.tage, cfg.seed ^ 0x7a9e),
      ittage(cfg.ittage, cfg.seed ^ 0x177a9e), ras(cfg.rasDepth)
{
    rob.configure(cfg.robSize);
    fetchBuf.configure(2 * cfg.fetchWidth);
    paq.configure(cfg.paqSize);
    ldq.configure(cfg.ldqSize);
    stq.configure(cfg.stqSize);
    // Both maps are bounded by the in-flight window (the stash only
    // ever holds trace indices that are still ahead of fetchIdx, see
    // squashYoungerThan); pre-sizing makes them allocation-free.
    inflightLoadPcs.reserve(inflightWindow());
    refetchStash.reserve(inflightWindow());
    // The scheduling structures are sized once, like the queues.
    const std::size_t slots = rob.capacity();
    completionQ.reserve(slots);
    iqList.reserve(slots);
    depSlots.assign(slots, {kNoSlot, kNoSlot, kNoSlot});
    lastWriterSlot.fill(kNoSlot);
    wakeHead.assign(slots, kNoNode);
    wakeNext.assign(3 * slots, kNoNode);
    wakePrev.assign(3 * slots, kNoNode);
    parkedSources.assign(slots, 0);
}

bool
Core::completesLater(const Completion &a, const Completion &b)
{
    return a.doneCycle != b.doneCycle ? a.doneCycle > b.doneCycle
                                      : a.seq > b.seq;
}

std::size_t
Core::robIndexOfSeq(InstSeqNum seq) const
{
    // ROB seqs are strictly increasing but not contiguous (a squash
    // never rewinds nextSeq), so rob[i].seq >= rob.front().seq + i.
    // Hence seq can only live at index <= seq - front.seq: probe that
    // slot directly (an O(1) hit whenever no squash gap sits below
    // it), else bisect the prefix to its left.
    constexpr std::size_t npos = ~std::size_t(0);
    if (rob.empty())
        return npos;
    const InstSeqNum front_seq = rob.front().seq;
    if (seq < front_seq || seq > rob.back().seq)
        return npos;
    std::size_t hi = std::size_t(seq - front_seq);
    if (hi >= rob.size())
        hi = rob.size() - 1;
    if (rob[hi].seq == seq)
        return hi;
    // rob[hi].seq > seq here, so the match (if any) is in [0, hi).
    std::size_t lo = 0;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (rob[mid].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return rob[lo].seq == seq ? lo : npos;
}

Core::Inflight *
Core::findBySeq(InstSeqNum seq, RobSlot *slot)
{
    ++work_.robSeqLookups;
    const std::size_t i = robIndexOfSeq(seq);
    if (i == ~std::size_t(0))
        return nullptr;
    if (slot)
        *slot = RobSlot(rob.slotOf(i));
    return &rob[i];
}

bool
Core::depsReady(Inflight &f, RobSlot slot)
{
    // On failure, leave a wake-up gate in f.sleepUntil: the latest
    // known ready time among the sources that are not ready, or now+1
    // when a producer's time is still unknown. Those producers also
    // get the op parked on their consumer chains, so the issue stage
    // skips it until one of them wakes it.
    ++work_.depChecks;
    // Dispatch recorded each source's producer slot. A source older
    // than the ROB head (or 0: no source) has committed and is ready;
    // a squashed producer takes its younger consumers with it.
    const InstSeqNum oldest = rob.front().seq;
    Cycle wake = 0;
    unsigned unknown = 0;
    for (unsigned s = 0; s < f.depSeq.size(); ++s) {
        const InstSeqNum d = f.depSeq[s];
        if (d < oldest)
            continue;
        const Inflight &p = rob.atSlot(depSlots[slot][s]);
        LVPSIM_CHECK(p.seq == d, "source %u of seq %llu: slot holds "
                     "seq %llu, not producer %llu", s,
                     static_cast<unsigned long long>(f.seq),
                     static_cast<unsigned long long>(p.seq),
                     static_cast<unsigned long long>(d));
        // A value-predicted load's result is available through the
        // VPE from vpReadyCycle, even before the load executes.
        if (p.vpDelivered && p.vpReadyCycle <= now)
            continue;
        if (p.done && p.doneCycle <= now)
            continue;
        Cycle cand;
        if (p.vpDelivered) {
            cand = p.vpReadyCycle;
            if (p.issued)
                cand = std::min(cand, p.doneCycle);
        } else if (p.paqPending || !p.issued) {
            // A PAQ probe may deliver any cycle; an unissued producer
            // has no done cycle yet: unknown.
            cand = now + 1;
            unknown |= 1u << s;
        } else {
            cand = p.doneCycle;
        }
        wake = std::max(wake, cand);
    }
    if (wake == 0)
        return true;
    f.sleepUntil = wake;
    if (unknown)
        park(slot, unknown);
    return false;
}

void
Core::park(RobSlot consumer, unsigned sources)
{
    lvp_assert(parkedSources[consumer] == 0, "op parked twice");
    parkedSources[consumer] = std::uint8_t(sources);
    for (unsigned s = 0; s < 3; ++s) {
        if (!(sources & (1u << s)))
            continue;
        const std::uint32_t node = 3 * consumer + s;
        const RobSlot producer = depSlots[consumer][s];
        const std::uint32_t head = wakeHead[producer];
        wakePrev[node] = kNoNode;
        wakeNext[node] = head;
        if (head != kNoNode)
            wakePrev[head] = node;
        wakeHead[producer] = node;
    }
}

void
Core::unpark(RobSlot consumer)
{
    const unsigned sources = parkedSources[consumer];
    for (unsigned s = 0; s < 3; ++s) {
        if (!(sources & (1u << s)))
            continue;
        const std::uint32_t node = 3 * consumer + s;
        const std::uint32_t prev = wakePrev[node];
        const std::uint32_t next = wakeNext[node];
        if (prev == kNoNode)
            wakeHead[depSlots[consumer][s]] = next;
        else
            wakeNext[prev] = next;
        if (next != kNoNode)
            wakePrev[next] = prev;
    }
    parkedSources[consumer] = 0;
}

void
Core::wakeConsumers(RobSlot producer)
{
    // A woken op re-runs its readiness check when the issue stage next
    // reaches it. Skipping it while parked changed nothing: each check
    // it missed would have failed on this producer, and (its known
    // sources being ready by then) would only have moved its gate to
    // the next cycle.
    while (wakeHead[producer] != kNoNode)
        unpark(wakeHead[producer] / 3);
}

Cycle
Core::execLatency(const Inflight &f)
{
    const MicroOp &op = opOf(f);
    switch (op.cls) {
      case OpClass::IntAlu: return cfg.intAluLat;
      case OpClass::IntMul: return cfg.intMulLat;
      case OpClass::IntDiv: return cfg.intDivLat;
      case OpClass::FpAlu: return cfg.fpLat;
      case OpClass::Branch:
      case OpClass::Call:
      case OpClass::Ret:
      case OpClass::IndirBr: return cfg.branchLat;
      case OpClass::Store: return cfg.storeLat;
      case OpClass::Barrier:
      case OpClass::Nop: return 1;
      case OpClass::Load: return 0; // resolved in issueStage
    }
    return 1;
}

// --------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------

bool
Core::commitStage()
{
    unsigned n = 0;
    while (!rob.empty() && n < cfg.retireWidth) {
        Inflight &f = rob.front();
        if (!f.done || f.doneCycle > now)
            break;
        const MicroOp &op = opOf(f);

        ++stats.instructions;
        if (op.isLoad()) {
            ++stats.loads;
            lvp_assert(!ldq.empty() && ldq.front().seq == f.seq,
                       "LDQ out of sync");
            ldq.pop_front();
            if (f.speculativeLoad)
                --specLoadsInFlight;
            auto it = inflightLoadPcs.find(op.pc);
            if (it != inflightLoadPcs.end() && --it->second == 0)
                inflightLoadPcs.erase(it);
            if (op.isPredictableLoad()) {
                ++stats.eligibleLoads;
                const bool used =
                    f.vpDelivered && f.vpReadyCycle <= f.doneCycle;
                if (used) {
                    ++stats.predictionsUsed;
                    const auto c = std::size_t(f.pred.component);
                    if (f.vpWrong) {
                        ++stats.predictionsWrong;
                        if (c < stats.wrongByComponent.size())
                            ++stats.wrongByComponent[c];
                    } else {
                        ++stats.predictionsCorrect;
                    }
                    if (c < stats.usedByComponent.size())
                        ++stats.usedByComponent[c];
                }
                LoadOutcome out;
                out.pc = op.pc;
                out.token = f.token;
                out.effAddr = op.effAddr;
                out.size = op.memSize;
                out.value = op.memValue;
                out.predictionUsed = used;
                out.predictionCorrect = used && !f.vpWrong;
                if (vpActive)
                    vp->train(out);
            } else if (f.token != 0) {
                vp->abandon(f.token);
            }
        } else if (op.isStore()) {
            ++stats.stores;
            lvp_assert(!stq.empty() && stq.front().seq == f.seq,
                       "STQ out of sync");
            stq.pop_front();
        } else if (op.isBranch()) {
            ++stats.branches;
        }
        if (commitHook) {
            CommitRecord rec;
            rec.traceIdx = f.traceIdx;
            rec.pc = op.pc;
            rec.cls = op.cls;
            rec.effAddr = op.effAddr;
            rec.memSize = op.memSize;
            rec.value = op.memValue;
            commitHook(rec);
        }
        rob.pop_front();
        ++committed;
        ++n;
    }
    if (n > 0 && vpActive)
        vp->onRetire(n);
    return n > 0;
}

// --------------------------------------------------------------------
// Completion (execution results become visible)
// --------------------------------------------------------------------

void
Core::validateLoad(Inflight &f)
{
    // Validation happens when the load executes (paper Section III-A).
    // Only predictions that were delivered in time can have poisoned
    // consumers; late or dropped predictions are harmless.
    if (!f.vpDelivered || f.vpReadyCycle > f.doneCycle)
        return;
    if (!f.vpWrong)
        return;
    ++stats.vpFlushes;
    // Flush everything younger; refetch from the next instruction.
    squashYoungerThan(f.seq + 1, f.traceIdx + 1);
    fetchResumeCycle = std::max(fetchResumeCycle, f.doneCycle + 1);
}

bool
Core::completeStage()
{
    // The ops due this cycle come off the completion queue in seq
    // order. A load's validation may squash everything younger,
    // which also drops their queue entries.
    bool any = false;
    while (!completionQ.empty() && completionQ.front().doneCycle <= now) {
        ++work_.completionVisits;
        const RobSlot slot = completionQ.front().slot;
        std::pop_heap(completionQ.begin(), completionQ.end(),
                      completesLater);
        completionQ.pop_back();
        Inflight &f = rob.atSlot(slot);
        LVPSIM_CHECK(f.issued && !f.done && f.doneCycle == now,
                     "completion of seq %llu out of step",
                     static_cast<unsigned long long>(f.seq));
        f.done = true;
        --issuedNotDone;
        any = true;
        wakeConsumers(slot);
        const MicroOp &op = opOf(f);

        if (f.branchMispredicted) {
            // The front end may resume along the correct path.
            fetchHalted = false;
            fetchResumeCycle = std::max(fetchResumeCycle, now + 1);
        }
        if (op.isLoad()) {
            f.paqPending = false; // probe is useless after execute
            validateLoad(f); // may squash ops younger than f
        }
    }
    return any;
}

// --------------------------------------------------------------------
// Issue
// --------------------------------------------------------------------

bool
Core::issueStage(unsigned &ls_used)
{
    unsigned issued_count = 0;
    unsigned alu_used = 0;
    ls_used = 0;
    if (iqCount == 0)
        return false;

    const unsigned alu_lanes = cfg.issueWidth - cfg.lsLanes;

    // Oldest first over the IQ list. Issued ops stay in the list
    // until the compaction below; a squash (memory-order violation)
    // cuts the list's tail, which is all younger than the store that
    // triggered it.
    std::size_t first_issued = iqList.size();
    for (std::size_t i = 0;
         i < iqList.size() && issued_count < cfg.issueWidth; ++i) {
        ++work_.iqVisits;
        const RobSlot slot = iqList[i];
        Inflight &f = rob.atSlot(slot);
        // minIssueCycle grows with seq (fetch order), so no younger
        // op can issue this cycle either.
        if (now < f.minIssueCycle)
            break;
        if (now < f.sleepUntil || parkedSources[slot])
            continue;
        const MicroOp &op = opOf(f);
        const bool is_ls = op.isLoad() || op.isStore();
        if (is_ls && ls_used >= cfg.lsLanes)
            continue;
        if (!is_ls && alu_used >= alu_lanes)
            continue;
        if (!depsReady(f, slot))
            continue;
        if (op.cls == OpClass::Barrier && f.seq != rob.front().seq)
            continue; // barriers issue only when oldest

        Cycle lat = execLatency(f);

        if (op.isLoad()) {
            // Check the store queue for an older overlapping store
            // (addresses are perfectly known; the *policy* is governed
            // by the memory dependence predictor).
            const MemQEntry *conflict = nullptr;
            for (auto it = stq.rbegin(); it != stq.rend(); ++it) {
                if (it->seq >= f.seq)
                    continue;
                if (rangesOverlap(op.effAddr, op.memSize, it->addr,
                                  it->size)) {
                    conflict = &*it;
                    break;
                }
            }
            if (conflict) {
                const Inflight *st = findBySeq(conflict->seq);
                const bool resolved = st && st->issued;
                if (!resolved) {
                    if (memdep.shouldWait(op.pc))
                        continue; // hold the load in the IQ
                    f.speculativeLoad = true;
                    ++specLoadsInFlight;
                    const auto res =
                        memory.dataAccess(op.pc, op.effAddr, false);
                    lat = 1 + res.latency;
                } else {
                    lat = 1 + cfg.stlfLat; // store-to-load forwarding
                }
            } else {
                const auto res =
                    memory.dataAccess(op.pc, op.effAddr, false);
                lat = 1 + res.latency;
            }
        } else if (op.isStore()) {
            memory.dataAccess(op.pc, op.effAddr, true);
        }

        f.inIQ = false;
        f.issued = true;
        f.doneCycle = now + std::max<Cycle>(1, lat);
        --iqCount;
        ++issuedNotDone;
        ++issued_count;
        if (is_ls)
            ++ls_used;
        else
            ++alu_used;
        first_issued = std::min(first_issued, i);
        completionQ.push_back({f.doneCycle, f.seq, slot});
        std::push_heap(completionQ.begin(), completionQ.end(),
                       completesLater);
        wakeConsumers(slot);

        if (op.isStore())
            checkStoreOrderViolation(f); // may squash younger ops
    }
    // Drop the issued ops from the list, keeping seq order.
    if (first_issued < iqList.size()) {
        std::size_t out = first_issued;
        for (std::size_t i = first_issued; i < iqList.size(); ++i)
            if (rob.atSlot(iqList[i]).inIQ)
                iqList[out++] = iqList[i];
        iqList.resize(out);
    }
    return issued_count > 0;
}

void
Core::checkStoreOrderViolation(const Inflight &store)
{
    // A younger load that already executed speculatively past this
    // then-unresolved store read stale data: memory-order flush,
    // replaying from the load itself. Only loads flagged speculative
    // at issue can violate, so the scan is skipped entirely while
    // none are in flight (the common case).
    if (specLoadsInFlight == 0)
        return;
    const MicroOp &sop = opOf(store);
    // The LDQ is seq-sorted; start at the first younger load.
    auto it = std::lower_bound(
        ldq.begin(), ldq.end(), store.seq,
        [](const MemQEntry &e, InstSeqNum s) { return e.seq <= s; });
    for (; it != ldq.end(); ++it) {
        const MemQEntry &e = *it;
        if (!rangesOverlap(e.addr, e.size, sop.effAddr, sop.memSize))
            continue;
        Inflight *ld = findBySeq(e.seq);
        if (!ld || !ld->issued || !ld->speculativeLoad)
            continue;
        ++stats.memOrderFlushes;
        memdep.recordViolation(opOf(*ld).pc);
        const std::uint64_t replay_idx = ld->traceIdx;
        squashYoungerThan(ld->seq, replay_idx);
        fetchResumeCycle = std::max(fetchResumeCycle, now + 1);
        return;
    }
}

// --------------------------------------------------------------------
// PAQ: probe the D-cache with predicted addresses on LS bubbles
// --------------------------------------------------------------------

bool
Core::paqStage(unsigned ls_used)
{
    bool any = false;
    unsigned slots =
        cfg.lsLanes > ls_used ? cfg.lsLanes - ls_used : 0;
    while (slots > 0 && !paq.empty()) {
        const PaqEntry e = paq.front();
        paq.pop_front();
        --slots;
        RobSlot slot = kNoSlot;
        Inflight *f = findBySeq(e.seq, &slot);
        if (!f || !f->paqPending || f->done)
            continue;
        f->paqPending = false;
        // Delivered or dropped, the load's ready time is now known
        // (or, unissued, waits on its issue): wake its consumers.
        wakeConsumers(slot);
        ++stats.paqProbes;
        any = true;
        const auto res = memory.paqProbe(e.addr);
        if (!res.l1Hit) {
            // Paper Figure 1 step 5 (prefetch on miss) is disabled:
            // the prediction is simply dropped.
            ++stats.paqMisses;
            continue;
        }
        const MicroOp &op = opOf(*f);
        // Conflicting-store avoidance (DLVP [3]): if an older
        // in-flight store to the probed bytes has not yet written the
        // cache, the probe would return stale data - drop the
        // prediction rather than poison consumers.
        bool conflict = false;
        for (auto it = stq.rbegin(); it != stq.rend(); ++it) {
            if (it->seq >= f->seq)
                continue;
            if (!rangesOverlap(e.addr, op.memSize, it->addr,
                               it->size))
                continue;
            const Inflight *st = findBySeq(it->seq);
            conflict = st && !st->issued;
            break;
        }
        if (conflict) {
            ++stats.paqConflictDrops;
            continue;
        }
        f->vpDelivered = true;
        f->vpReadyCycle = now + res.latency;
        // The delivered value is wrong iff the predicted address was
        // wrong (validated when the load executes).
        f->vpWrong = e.addr != op.effAddr;
    }
    return any;
}

// --------------------------------------------------------------------
// Dispatch (rename + queue allocation)
// --------------------------------------------------------------------

bool
Core::dispatchStage()
{
    unsigned n = 0;
    while (!fetchBuf.empty() && n < cfg.fetchWidth) {
        Inflight &f = fetchBuf.front();
        if (f.fetchCycle >= now)
            break; // fetched this cycle; dispatch next cycle
        if (rob.size() >= cfg.robSize || iqCount >= cfg.iqSize)
            break;
        const MicroOp &op = opOf(f);
        if (op.isLoad() && ldq.size() >= cfg.ldqSize)
            break;
        if (op.isStore() && stq.size() >= cfg.stqSize)
            break;

        // Rename: resolve sources against the last writers, and note
        // each producer's ROB slot for the readiness checks.
        const RobSlot slot = RobSlot(rob.slotOf(rob.size()));
        for (unsigned s = 0; s < f.depSeq.size(); ++s) {
            const RegId r = op.src[s];
            f.depSeq[s] = (r == invalidReg) ? 0 : lastWriter[r];
            depSlots[slot][s] =
                (r == invalidReg) ? kNoSlot : lastWriterSlot[r];
        }
        if (op.dst != invalidReg) {
            lastWriter[op.dst] = f.seq;
            lastWriterSlot[op.dst] = slot;
        }

        f.inIQ = true;
        ++iqCount;
        iqList.push_back(slot);
        if (op.isLoad())
            ldq.push_back({f.seq, op.effAddr, op.memSize});
        if (op.isStore())
            stq.push_back({f.seq, op.effAddr, op.memSize});

        // Address predictions enter the PAQ here (paper step 2).
        if (f.pred.isAddress()) {
            if (paq.size() < cfg.paqSize) {
                f.paqPending = true;
                paq.push_back({f.seq, f.pred.addr});
            } else {
                ++stats.paqDropsFull;
                f.pred = Prediction{};
            }
        }

        rob.push_back(f);
        fetchBuf.pop_front();
        ++n;
    }
    return n > 0;
}

// --------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------

void
Core::fetchOne()
{
    const MicroOp &op = code[fetchIdx];
    Inflight f;
    f.traceIdx = std::uint32_t(fetchIdx);
    f.seq = nextSeq++;
    f.fetchCycle = now;
    f.minIssueCycle = now + cfg.fetchToExecute - 1;
    const bool first_fetch = fetchIdx >= contextIdx;

    if (op.isBranch()) {
        bool mispredict = false;
        if (first_fetch) {
            switch (op.cls) {
              case OpClass::Branch: {
                const bool pred = tage.predict(op.pc);
                mispredict = pred != op.taken;
                tage.update(op.pc, op.taken);
                break;
              }
              case OpClass::Call:
                // Direct call: target known at decode; push the RAS.
                ras.push(op.pc + 4);
                tage.updateHistoryOnly(op.pc, true);
                break;
              case OpClass::Ret: {
                const Addr pred = ras.pop();
                mispredict = pred != op.target;
                tage.updateHistoryOnly(op.pc, true);
                break;
              }
              case OpClass::IndirBr: {
                const Addr pred = ittage.predict(op.pc);
                mispredict = pred != op.target;
                ittage.update(op.pc, op.target);
                tage.updateHistoryOnly(op.pc, true);
                break;
              }
              default:
                break;
            }
            if (vpActive)
                vp->notifyBranch(op.pc, op.taken, op.target);
            if (mispredict)
                ++stats.branchMispredicts;
        }
        f.branchMispredicted = mispredict;
        if (mispredict)
            fetchHalted = true;
    } else if (op.isPredictableLoad() && vpActive) {
        // During warmup (vpActive == false) predictable loads behave
        // like plain loads: no probe, no token, no notifies — the VP
        // sees nothing until the measurement region begins.
        auto stash = refetchStash.find(fetchIdx);
        if (stash != refetchStash.end()) {
            // Re-fetch after a flush: restore the first-fetch
            // prediction (history-checkpoint semantics).
            f.token = stash->second.token;
            f.pred = stash->second.pred;
            refetchStash.erase(stash);
        } else {
            LoadProbe probe;
            probe.pc = op.pc;
            probe.token = nextToken++;
            const auto it = inflightLoadPcs.find(op.pc);
            probe.inflightSamePc =
                it == inflightLoadPcs.end() ? 0 : it->second;
            f.token = probe.token;
            f.pred = vp->predict(probe);
            if (f.pred.valid())
                ++stats.predictionsMade;
        }
        if (f.pred.isValue()) {
            f.vpDelivered = true;
            f.vpReadyCycle = now; // available from rename onward
            f.vpWrong = f.pred.value != op.memValue;
        }
        if (first_fetch)
            vp->notifyLoad(op.pc);
    }
    if (op.isLoad())
        ++inflightLoadPcs[op.pc];

    if (first_fetch)
        contextIdx = fetchIdx + 1;
    ++fetchIdx;
    fetchBuf.push_back(f);
}

bool
Core::fetchStage()
{
    if (now < fetchResumeCycle || fetchHalted || fetchFrozen)
        return false;
    unsigned n = 0;
    while (n < cfg.fetchWidth && fetchIdx < code.size() &&
           fetchBuf.size() < 2 * cfg.fetchWidth && !fetchHalted) {
        fetchOne();
        ++n;
    }
    return n > 0;
}

// --------------------------------------------------------------------
// Squash / flush
// --------------------------------------------------------------------

void
Core::squashYoungerThan(InstSeqNum oldest_squashed,
                        std::uint64_t new_fetch_idx)
{
    auto drop_load_bookkeeping = [&](const Inflight &f) {
        const MicroOp &op = opOf(f);
        if (op.isLoad()) {
            auto it = inflightLoadPcs.find(op.pc);
            if (it != inflightLoadPcs.end() && --it->second == 0)
                inflightLoadPcs.erase(it);
            if (f.token != 0) {
                // Keep the predictor's per-token state alive when the
                // re-fetched load would predict the same thing: real
                // hardware restores the history checkpoint and probes
                // the *current* tables. A correct prediction would
                // recur; a wrong one would not (the triggering
                // mispredict resets its entry before the re-probe),
                // so wrong predictions are dropped and re-probed.
                const bool wrong =
                    (f.pred.isValue() &&
                     f.pred.value != op.memValue) ||
                    (f.pred.isAddress() &&
                     f.pred.addr != op.effAddr);
                refetchStash[f.traceIdx] = {
                    f.token, wrong ? Prediction{} : f.pred};
            }
        }
    };

    bool drop_completions = false;
    while (!rob.empty() && rob.back().seq >= oldest_squashed) {
        Inflight &f = rob.back();
        const RobSlot slot = RobSlot(rob.slotOf(rob.size() - 1));
        if (f.inIQ) {
            // IQ list and ROB share seq order: the youngest IQ op is
            // the list's tail.
            lvp_assert(!iqList.empty() && iqList.back() == slot,
                       "IQ list out of sync with the ROB");
            iqList.pop_back();
            --iqCount;
        }
        if (f.issued && !f.done) {
            --issuedNotDone;
            drop_completions = true;
        }
        if (f.speculativeLoad)
            --specLoadsInFlight;
        // Its consumers are younger and already gone, so its own
        // chain is empty; leave no link behind in an older chain.
        unpark(slot);
        LVPSIM_CHECK(wakeHead[slot] == kNoNode,
                     "squashed seq %llu still has parked consumers",
                     static_cast<unsigned long long>(f.seq));
        drop_load_bookkeeping(f);
        ++stats.squashedOps;
        rob.pop_back();
    }
    if (drop_completions) {
        completionQ.erase(
            std::remove_if(completionQ.begin(), completionQ.end(),
                           [&](const Completion &c) {
                               return c.seq >= oldest_squashed;
                           }),
            completionQ.end());
        std::make_heap(completionQ.begin(), completionQ.end(),
                       completesLater);
    }
    while (!ldq.empty() && ldq.back().seq >= oldest_squashed)
        ldq.pop_back();
    while (!stq.empty() && stq.back().seq >= oldest_squashed)
        stq.pop_back();
    while (!fetchBuf.empty() &&
           fetchBuf.back().seq >= oldest_squashed) {
        drop_load_bookkeeping(fetchBuf.back());
        ++stats.squashedOps;
        fetchBuf.pop_back();
    }
    // The PAQ is filled in dispatch order and drained at the front,
    // so it is always seq-sorted and the squashed entries are exactly
    // its tail.
    while (!paq.empty() && paq.back().seq >= oldest_squashed)
        paq.pop_back();

    if (refetchStash.size() > stats.refetchStashPeak)
        stats.refetchStashPeak = refetchStash.size();

    rebuildRenameMap();
    fetchIdx = new_fetch_idx;

    // If the mispredicted branch that halted fetch was squashed,
    // fetch may resume; recompute from the surviving window.
    fetchHalted = false;
    for (const Inflight &f : rob) {
        if (f.branchMispredicted && !f.done) {
            fetchHalted = true;
            break;
        }
    }
}

void
Core::rebuildRenameMap()
{
    lastWriter.fill(0);
    lastWriterSlot.fill(kNoSlot);
    for (std::size_t i = 0; i < rob.size(); ++i) {
        const MicroOp &op = opOf(rob[i]);
        if (op.dst != invalidReg) {
            lastWriter[op.dst] = rob[i].seq;
            lastWriterSlot[op.dst] = RobSlot(rob.slotOf(i));
        }
    }
}

void
Core::rebuildSchedule()
{
    // Everything the event-driven scheduler keeps beside the ROB,
    // recomputed from it. No op starts parked: a parked op only skips
    // readiness checks that would fail, so an unparked one re-checks,
    // fails the same way and parks again.
    iqList.clear();
    completionQ.clear();
    std::fill(wakeHead.begin(), wakeHead.end(), kNoNode);
    std::fill(parkedSources.begin(), parkedSources.end(), 0);
    const auto slot_of_seq = [&](InstSeqNum seq) {
        const std::size_t i = robIndexOfSeq(seq);
        return i == ~std::size_t(0) ? kNoSlot : RobSlot(rob.slotOf(i));
    };
    for (std::size_t r = 0; r < lastWriter.size(); ++r)
        lastWriterSlot[r] = slot_of_seq(lastWriter[r]);
    for (std::size_t i = 0; i < rob.size(); ++i) {
        const Inflight &f = rob[i];
        const RobSlot slot = RobSlot(rob.slotOf(i));
        if (f.inIQ)
            iqList.push_back(slot);
        if (f.issued && !f.done)
            completionQ.push_back({f.doneCycle, f.seq, slot});
        for (unsigned s = 0; s < f.depSeq.size(); ++s)
            depSlots[slot][s] = slot_of_seq(f.depSeq[s]);
    }
    std::make_heap(completionQ.begin(), completionQ.end(),
                   completesLater);
}

// --------------------------------------------------------------------
// Invariants (checked builds only; see common/check.hh)
// --------------------------------------------------------------------

void
Core::checkCycleInvariants() const
{
    // Occupancy bounds from the paper's Table III configuration.
    // These hold *every* cycle: dispatch is the only producer for
    // each structure and stalls when a queue is full.
    LVPSIM_CHECK(rob.size() <= cfg.robSize,
                 "ROB overflow: %zu > %u", rob.size(), cfg.robSize);
    LVPSIM_CHECK(iqCount <= cfg.iqSize,
                 "IQ overflow: %u > %u", iqCount, cfg.iqSize);
    LVPSIM_CHECK(ldq.size() <= cfg.ldqSize,
                 "LDQ overflow: %zu > %u", ldq.size(), cfg.ldqSize);
    LVPSIM_CHECK(stq.size() <= cfg.stqSize,
                 "STQ overflow: %zu > %u", stq.size(), cfg.stqSize);
    LVPSIM_CHECK(paq.size() <= cfg.paqSize,
                 "PAQ overflow: %zu > %u", paq.size(), cfg.paqSize);
    LVPSIM_CHECK(fetchBuf.size() <= 2 * cfg.fetchWidth,
                 "fetch buffer overflow: %zu > %u", fetchBuf.size(),
                 2 * cfg.fetchWidth);
    LVPSIM_CHECK(iqCount <= rob.size(),
                 "IQ count %u exceeds ROB occupancy %zu", iqCount,
                 rob.size());
    LVPSIM_CHECK(issuedNotDone <= rob.size(),
                 "issued-not-done %llu exceeds ROB occupancy %zu",
                 static_cast<unsigned long long>(issuedNotDone),
                 rob.size());
    LVPSIM_CHECK(iqList.size() == iqCount,
                 "IQ list holds %zu ops, IQ count %u", iqList.size(),
                 iqCount);
    LVPSIM_CHECK(completionQ.size() == issuedNotDone,
                 "completion queue holds %zu ops, %llu issued-not-done",
                 completionQ.size(),
                 static_cast<unsigned long long>(issuedNotDone));
    LVPSIM_CHECK(specLoadsInFlight <= ldq.size(),
                 "speculative-load count %llu exceeds LDQ occupancy "
                 "%zu",
                 static_cast<unsigned long long>(specLoadsInFlight),
                 ldq.size());
    // The refetch stash holds only trace indices ahead of fetchIdx
    // that were in flight when squashed, so it can never outgrow the
    // in-flight window.
    LVPSIM_CHECK(refetchStash.size() <= inflightWindow(),
                 "refetch stash overflow: %zu > %zu",
                 refetchStash.size(), inflightWindow());
}

void
Core::checkFullInvariants() const
{
    // O(window) structural cross-checks, amortized over
    // fullCheckPeriod cycles.
    InstSeqNum prev = 0;
    unsigned in_iq = 0;
    std::uint64_t issued_not_done = 0;
    std::uint64_t spec_loads = 0;
    std::size_t n_loads = 0, n_stores = 0;
    std::size_t live_tokens = 0;
    for (const Inflight &f : rob) {
        LVPSIM_CHECK(f.seq > prev, "ROB not in seq order");
        prev = f.seq;
        in_iq += f.inIQ ? 1 : 0;
        issued_not_done += (f.issued && !f.done) ? 1 : 0;
        spec_loads += f.speculativeLoad ? 1 : 0;
        live_tokens += f.token != 0 ? 1 : 0;
        LVPSIM_CHECK(!(f.inIQ && f.issued),
                     "op both in IQ and issued (seq %llu)",
                     static_cast<unsigned long long>(f.seq));
        const auto &op = opOf(f);
        n_loads += op.isLoad() ? 1 : 0;
        n_stores += op.isStore() ? 1 : 0;
    }
    for (const Inflight &f : fetchBuf)
        live_tokens += f.token != 0 ? 1 : 0;
    LVPSIM_CHECK(in_iq == iqCount,
                 "IQ count drift: cached %u, actual %u", iqCount,
                 in_iq);
    LVPSIM_CHECK(issued_not_done == issuedNotDone,
                 "issuedNotDone drift: cached %llu, actual %llu",
                 static_cast<unsigned long long>(issuedNotDone),
                 static_cast<unsigned long long>(issued_not_done));
    LVPSIM_CHECK(spec_loads == specLoadsInFlight,
                 "specLoadsInFlight drift: cached %llu, actual %llu",
                 static_cast<unsigned long long>(specLoadsInFlight),
                 static_cast<unsigned long long>(spec_loads));
    // Every pending predictor snapshot belongs to a live token: one
    // held by an in-flight load, or one parked in the refetch stash.
    LVPSIM_CHECK(vp->pendingProbes() <=
                     live_tokens + refetchStash.size(),
                 "predictor snapshot leak: %zu pending, %zu live "
                 "tokens + %zu stashed",
                 vp->pendingProbes(), live_tokens,
                 refetchStash.size());
    // Every ROB load/store has exactly one LDQ/STQ entry, in order.
    LVPSIM_CHECK(ldq.size() == n_loads,
                 "LDQ/ROB drift: %zu entries, %zu loads", ldq.size(),
                 n_loads);
    LVPSIM_CHECK(stq.size() == n_stores,
                 "STQ/ROB drift: %zu entries, %zu stores",
                 stq.size(), n_stores);
    checkScheduleInvariants();
    prev = 0;
    for (const MemQEntry &e : ldq) {
        LVPSIM_CHECK(e.seq > prev, "LDQ not in seq order");
        prev = e.seq;
        LVPSIM_CHECK(robIndexOfSeq(e.seq) != ~std::size_t(0),
                     "LDQ entry seq %llu not in ROB",
                     static_cast<unsigned long long>(e.seq));
    }
    prev = 0;
    for (const MemQEntry &e : stq) {
        LVPSIM_CHECK(e.seq > prev, "STQ not in seq order");
        prev = e.seq;
        LVPSIM_CHECK(robIndexOfSeq(e.seq) != ~std::size_t(0),
                     "STQ entry seq %llu not in ROB",
                     static_cast<unsigned long long>(e.seq));
    }
}

void
Core::checkScheduleInvariants() const
{
    // The event-driven structures against the ROB they derive from.
    // Seqs below the ROB head have committed (none are left when the
    // ROB is empty).
    const InstSeqNum oldest = rob.empty()
                                  ? std::numeric_limits<InstSeqNum>::max()
                                  : rob.front().seq;
    const auto in_rob = [&](RobSlot slot) {
        return slot < rob.capacity() &&
               ((slot - rob.slotOf(0)) & (rob.capacity() - 1)) <
                   rob.size();
    };
    const auto producer_ok = [&](InstSeqNum seq, RobSlot slot) {
        return seq < oldest ||
               (in_rob(slot) && rob.atSlot(slot).seq == seq);
    };
    // IQ list: exactly the ROB's IQ ops, in seq order.
    InstSeqNum prev = 0;
    for (RobSlot slot : iqList) {
        LVPSIM_CHECK(in_rob(slot) && rob.atSlot(slot).inIQ &&
                         rob.atSlot(slot).seq > prev,
                     "IQ list entry slot %u stale or out of order",
                     unsigned(slot));
        prev = rob.atSlot(slot).seq;
    }
    // Completion queue: exactly the issued-not-done ops, as a heap.
    for (const Completion &c : completionQ) {
        LVPSIM_CHECK(in_rob(c.slot), "completion entry off the ROB");
        const Inflight &f = rob.atSlot(c.slot);
        LVPSIM_CHECK(f.seq == c.seq && f.issued && !f.done &&
                         f.doneCycle == c.doneCycle,
                     "completion entry seq %llu stale",
                     static_cast<unsigned long long>(c.seq));
    }
    LVPSIM_CHECK(std::is_heap(completionQ.begin(), completionQ.end(),
                              completesLater),
                 "completion queue is not a heap");
    // Producer slots: every in-ROB producer is where its consumers
    // and the rename map say.
    for (std::size_t r = 0; r < lastWriter.size(); ++r)
        LVPSIM_CHECK(producer_ok(lastWriter[r], lastWriterSlot[r]),
                     "rename slot of r%zu stale", r);
    std::size_t parked_nodes = 0;
    for (std::size_t i = 0; i < rob.size(); ++i) {
        const Inflight &f = rob[i];
        const RobSlot slot = RobSlot(rob.slotOf(i));
        if (f.inIQ)
            for (unsigned s = 0; s < 3; ++s)
                LVPSIM_CHECK(producer_ok(f.depSeq[s], depSlots[slot][s]),
                             "producer slot of seq %llu source %u stale",
                             static_cast<unsigned long long>(f.seq), s);
        const unsigned parked = parkedSources[slot];
        LVPSIM_CHECK(parked == 0 || f.inIQ,
                     "seq %llu parked outside the IQ",
                     static_cast<unsigned long long>(f.seq));
        for (unsigned s = 0; s < 3; ++s) {
            if (!(parked & (1u << s)))
                continue;
            ++parked_nodes;
            // Parked on a producer whose ready time is still unknown.
            const Inflight &p = rob.atSlot(depSlots[slot][s]);
            LVPSIM_CHECK(producer_ok(f.depSeq[s], depSlots[slot][s]) &&
                             f.depSeq[s] >= oldest && !p.vpDelivered &&
                             (p.paqPending || !p.issued),
                         "seq %llu parked on a known producer",
                         static_cast<unsigned long long>(f.seq));
        }
    }
    // Wake chains: each node is a parked source of a consumer whose
    // producer owns the chain; together they are every parked source.
    std::size_t chained = 0;
    for (std::size_t p = 0; p < wakeHead.size(); ++p) {
        std::uint32_t back = kNoNode;
        for (std::uint32_t n = wakeHead[p]; n != kNoNode;
             n = wakeNext[n]) {
            ++chained;
            const RobSlot c = n / 3;
            LVPSIM_CHECK(in_rob(RobSlot(p)) && wakePrev[n] == back &&
                             (parkedSources[c] & (1u << (n % 3))) &&
                             depSlots[c][n % 3] == p,
                         "wake chain of slot %zu corrupt", p);
            LVPSIM_CHECK(chained <= wakeNext.size(),
                         "wake chain of slot %zu loops", p);
            back = n;
        }
    }
    LVPSIM_CHECK(chained == parked_nodes,
                 "%zu chained wake nodes, %zu parked sources", chained,
                 parked_nodes);
}

// --------------------------------------------------------------------
// Main loop
// --------------------------------------------------------------------

Cycle
Core::nextEventCycle() const
{
    // The earliest completion, the oldest IQ op's issue floor (both
    // minIssueCycle and fetchCycle grow with seq) and fetch.
    Cycle next = std::numeric_limits<Cycle>::max();
    if (!completionQ.empty())
        next = completionQ.front().doneCycle;
    if (!iqList.empty())
        next = std::min(next, rob.atSlot(iqList.front()).minIssueCycle);
    if (fetchResumeCycle > now &&
        (fetchIdx < code.size() || !fetchBuf.empty()))
        next = std::min(next, fetchResumeCycle);
    if (!fetchBuf.empty())
        next = std::min(next, fetchBuf.front().fetchCycle + 1);
    return next;
}

void
Core::simulate(std::uint64_t commit_target)
{
    while ((!fetchFrozen && fetchIdx < code.size()) || !rob.empty() ||
           !fetchBuf.empty()) {
        if (commit_target && committed >= commit_target)
            break;
        ++now;
        bool any = false;
        any |= commitStage();
        any |= completeStage();
        unsigned ls_used = 0;
        any |= issueStage(ls_used);
        any |= paqStage(ls_used);
        any |= dispatchStage();
        any |= fetchStage();

        if (committed >= nextProgressAt) {
            progressHook(committed);
            nextProgressAt = committed + progressEvery;
        }

#if LVPSIM_CHECKS_ENABLED
        checkCycleInvariants();
        if (now % fullCheckPeriod == 0)
            checkFullInvariants();
#endif

        if (!any) {
            const Cycle next = nextEventCycle();
            lvp_assert(next != std::numeric_limits<Cycle>::max(),
                       "pipeline deadlock at cycle %llu",
                       static_cast<unsigned long long>(now));
            if (next > now + 1)
                now = next - 1; // the loop header will ++now
        }
    }
}

void
Core::warmup(std::uint64_t n)
{
    if (n == 0)
        return;
    vpActive = false;
    simulate(committed + n);
    // Drain: freeze fetch and run the in-flight window dry so the
    // measurement (or checkpoint) boundary is quiescent. A squash
    // during the drain may rewind fetchIdx; those instructions are
    // simply re-fetched once measurement resumes fetch.
    fetchFrozen = true;
    simulate(0);
    fetchFrozen = false;
    vpActive = true;
    LVPSIM_CHECK(rob.empty() && fetchBuf.empty() &&
                     refetchStash.empty(),
                 "warmup drain left %zu ROB + %zu fetch-buffer + %zu "
                 "stashed entries",
                 rob.size(), fetchBuf.size(), refetchStash.size());
}

void
Core::drain()
{
    fetchFrozen = true;
    simulate(0);
    fetchFrozen = false;
    // Squashes during the drain can park predictions (with live
    // predictor tokens) in the refetch stash; nothing will re-fetch
    // them on this core, so release their snapshots. Tokens are
    // abandoned in sorted order — FlatMap iteration order is
    // hash-shaped, and the predictor must see the same sequence on
    // every run.
    std::vector<std::uint64_t> stale;
    stale.reserve(refetchStash.size());
    for (const auto &kv : refetchStash)
        stale.push_back(kv.second.token);
    std::sort(stale.begin(), stale.end());
    for (std::uint64_t t : stale)
        vp->abandon(t);
    refetchStash.clear();
    LVPSIM_CHECK(rob.empty() && fetchBuf.empty() &&
                     vp->pendingProbes() == 0,
                 "drain left %zu ROB + %zu fetch-buffer entries, %zu "
                 "pending probes",
                 rob.size(), fetchBuf.size(), vp->pendingProbes());
}

void
Core::functionalWarmup(std::uint64_t n)
{
    lvp_assert(rob.empty() && fetchBuf.empty(),
               "functionalWarmup needs a quiescent machine");
    const std::uint64_t end =
        std::min<std::uint64_t>(fetchIdx + n, code.size());
    while (fetchIdx < end) {
        const MicroOp &op = code[fetchIdx];
        // Branch-predictor training replicates fetchOne()'s
        // first-fetch sequence exactly; with an empty pipeline every
        // index is a first fetch (fetchIdx >= contextIdx always).
        switch (op.cls) {
          case OpClass::Branch: {
            const bool pred = tage.predict(op.pc);
            (void)pred;
            tage.update(op.pc, op.taken);
            break;
          }
          case OpClass::Call:
            ras.push(op.pc + 4);
            tage.updateHistoryOnly(op.pc, true);
            break;
          case OpClass::Ret:
            (void)ras.pop();
            tage.updateHistoryOnly(op.pc, true);
            break;
          case OpClass::IndirBr:
            (void)ittage.predict(op.pc);
            ittage.update(op.pc, op.target);
            tage.updateHistoryOnly(op.pc, true);
            break;
          case OpClass::Load:
            memory.dataAccess(op.pc, op.effAddr, false);
            break;
          case OpClass::Store:
            memory.dataAccess(op.pc, op.effAddr, true);
            break;
          default:
            break;
        }
        contextIdx = fetchIdx + 1;
        ++fetchIdx;
        ++committed;
        if (committed >= nextProgressAt) {
            progressHook(committed);
            nextProgressAt = committed + progressEvery;
        }
    }
}

void
Core::setProgressHook(std::uint64_t every, ProgressHook fn)
{
    if (every == 0 || !fn) {
        progressHook = nullptr;
        progressEvery = 0;
        nextProgressAt = std::numeric_limits<std::uint64_t>::max();
        return;
    }
    progressHook = std::move(fn);
    progressEvery = every;
    nextProgressAt = committed + every;
}

SimStats
Core::run(std::uint64_t max_instrs)
{
    // Measure relative to the current (possibly post-warmup) state so
    // warmup cycles and misses never pollute the reported run.
    stats = SimStats{};
    const std::uint64_t l1d_miss0 = memory.l1d().misses();
    const std::uint64_t l2_miss0 = memory.l2().misses();
    const Cycle cycle0 = now;

    simulate(max_instrs ? committed + max_instrs : 0);

    stats.cycles = now - cycle0;
    stats.l1dMisses = memory.l1d().misses() - l1d_miss0;
    stats.l2Misses = memory.l2().misses() - l2_miss0;
    if (refetchStash.size() > stats.refetchStashPeak)
        stats.refetchStashPeak = refetchStash.size();
    stats.vpSnapshotsPeak = vp->pendingProbesPeak();
    // At natural trace exhaustion every stashed prediction must have
    // been consumed by its re-fetch (the stash only holds indices
    // ahead of fetchIdx); an early max_instrs stop may leave some.
    LVPSIM_CHECK(fetchIdx < code.size() || !rob.empty() ||
                     !fetchBuf.empty() || refetchStash.empty(),
                 "refetch stash leak: %zu entries at trace "
                 "exhaustion",
                 refetchStash.size());
    return stats;
}

void
Core::dumpSubstrateStats(std::ostream &os) const
{
    auto rate = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? 100.0 * double(part) / double(whole) : 0.0;
    };
    const auto &l1d = memory.l1dConst();
    const auto &l2 = memory.l2Const();
    const auto &l3 = memory.l3Const();
    const auto &tlb = memory.tlbConst();
    os << "  l1d: " << l1d.hits() << " hits, " << l1d.misses()
       << " misses (" << rate(l1d.misses(),
                              l1d.hits() + l1d.misses())
       << "% miss)\n"
       << "  l2:  " << l2.hits() << " hits, " << l2.misses()
       << " misses\n"
       << "  l3:  " << l3.hits() << " hits, " << l3.misses()
       << " misses\n"
       << "  dtlb: " << tlb.hits() << " hits, " << tlb.misses()
       << " misses\n"
       << "  prefetches issued: " << memory.prefetchesIssued()
       << "\n"
       << "  tage: " << tage.lookups() << " lookups, "
       << tage.mispredicts() << " mispredicts ("
       << rate(tage.mispredicts(), tage.lookups()) << "%)\n"
       << "  ittage: " << ittage.lookups() << " lookups, "
       << ittage.mispredicts() << " mispredicts\n"
       << "  memdep violations: " << memdep.violations() << "\n";
}

// --------------------------------------------------------------------
// Checkpointing
// --------------------------------------------------------------------

void
Core::saveState(State &s) const
{
    memory.saveState(s.memory);
    memdep.saveState(s.memdep);
    tage.saveState(s.tage);
    ittage.saveState(s.ittage);
    ras.saveState(s.ras);
    s.pipeline = *this;
}

void
Core::restoreState(const State &s)
{
    memory.restoreState(s.memory);
    memdep.restoreState(s.memdep);
    tage.restoreState(s.tage);
    ittage.restoreState(s.ittage);
    ras.restoreState(s.ras);
    PipelineState::operator=(s.pipeline);
    rebuildSchedule();
}

} // namespace pipe
} // namespace lvpsim

#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/checkpoint_store.hh"
#include "sim/sampled.hh"
#include "trace/trace_spec.hh"

namespace lvpsim
{
namespace sim
{

double
secondsSince(WallClock::time_point t0)
{
    return std::chrono::duration<double>(WallClock::now() - t0)
        .count();
}

namespace
{

// Progress reporting is process-wide opt-in state (CLI --progress):
// reads/writes are relaxed because the value only gates stderr lines,
// never simulation behavior.
std::atomic<std::uint64_t> progressEvery{0};
Mutex progressPrintMx;

/** Store codec for the checkpoint taken after @p warmup instructions
 *  (after the version word); decoding rejects any other length. */
auto
checkpointCodec(std::uint64_t warmup)
{
    return [warmup](auto &ar, SimCheckpoint &ck) {
        pipe::io(ar, ck.core);
        ar.u64(ck.warmupInstrs);
        ar.check(ck.warmupInstrs == warmup);
    };
}

std::string
intervalKey(const std::string &prefix, std::uint64_t idx)
{
    return prefix + "#interval" + std::to_string(idx);
}

} // anonymous namespace

void
setProgressReportEvery(std::uint64_t every)
{
    progressEvery.store(every, std::memory_order_relaxed);
}

std::uint64_t
progressReportEvery()
{
    return progressEvery.load(std::memory_order_relaxed);
}

void
installProgressHook(pipe::Core &core, const std::string &label)
{
    const std::uint64_t every = progressReportEvery();
    if (every == 0)
        return;
    core.setProgressHook(every, [label](std::uint64_t committed) {
        // One line per tick; serialized so --jobs runs don't
        // interleave partial lines. stderr only: --json output (and
        // the determinism diff) never sees these.
        MutexLock lk(progressPrintMx);
        std::fprintf(stderr, "progress: %s %" PRIu64 " instructions\n",
                     label.c_str(), committed);
    });
}

pipe::SimStats
runTrace(const std::vector<trace::MicroOp> &ops,
         pipe::LoadValuePredictor *vp, const RunConfig &rc,
         pipe::CoreWork *work)
{
    pipe::Core core(rc.core, ops, vp);
    installProgressHook(core, "run");
    if (rc.warmupInstrs)
        core.warmup(rc.warmupInstrs);
    const pipe::SimStats stats = core.run();
    if (work)
        *work += core.work();
    return stats;
}

std::string
runConfigKey(const RunConfig &rc)
{
    // Every field of RunConfig (and its nested configs) must appear
    // here: the key is what makes "same key => same results" true for
    // CheckpointCache and BaselineCache. Append-only, '.'-separated.
    std::string k;
    k.reserve(256);
    const auto add = [&k](std::uint64_t v) {
        k += std::to_string(v);
        k += '.';
    };
    add(rc.maxInstrs);
    add(rc.warmupInstrs);
    add(rc.traceSeed);
    add(rc.sampleK);
    add(rc.sampleIntervalLen);

    const pipe::CoreConfig &c = rc.core;
    add(c.fetchWidth);
    add(c.issueWidth);
    add(c.lsLanes);
    add(c.retireWidth);
    add(c.robSize);
    add(c.iqSize);
    add(c.ldqSize);
    add(c.stqSize);
    add(c.fetchToExecute);
    add(c.paqSize);
    add(c.intAluLat);
    add(c.intMulLat);
    add(c.intDivLat);
    add(c.fpLat);
    add(c.branchLat);
    add(c.storeLat);
    add(c.stlfLat);

    const auto addCache = [&](const mem::CacheConfig &cc) {
        add(cc.sizeBytes);
        add(cc.assoc);
        add(cc.blockSize);
        add(cc.accessLatency);
    };
    addCache(c.memory.l1i);
    addCache(c.memory.l1d);
    addCache(c.memory.l2);
    addCache(c.memory.l3);
    add(c.memory.memoryLatency);
    add(c.memory.enablePrefetch ? 1 : 0);

    add(c.tage.numTables);
    add(c.tage.logBase);
    add(c.tage.logTagged);
    add(c.tage.tagBits);
    add(c.tage.minHist);
    add(c.tage.maxHist);
    add(c.tage.counterBits);
    add(c.tage.usefulBits);

    add(c.ittage.numTables);
    add(c.ittage.logBase);
    add(c.ittage.logTagged);
    add(c.ittage.tagBits);
    add(c.ittage.minHist);
    add(c.ittage.maxHist);

    add(c.rasDepth);
    add(c.seed);
    return k;
}

TraceCache &
TraceCache::instance()
{
    static TraceCache c;
    return c;
}

OnceCache<TraceCache::Info>::Ptr
TraceCache::lookup(const std::string &workload, std::size_t max_ops,
                   std::uint64_t seed)
{
    const std::string key = workload + "#" +
                            std::to_string(max_ops) + "#" +
                            std::to_string(seed);
    return cache.get(key, [&](Info &info) {
        std::string err;
        auto t = trace::loadTrace(workload, max_ops, seed, &err);
        if (!t)
            lvp_fatal("%s", err.c_str());
        info.trace = std::make_shared<const std::vector<trace::MicroOp>>(
            std::move(t->ops));
        info.identity = std::move(t->identity);
        info.format = std::move(t->format);
    });
}

TraceCache::TracePtr
TraceCache::get(const std::string &workload, std::size_t max_ops,
                std::uint64_t seed)
{
    return lookup(workload, max_ops, seed)->trace;
}

TraceCache::Info
TraceCache::info(const std::string &workload, std::size_t max_ops,
                 std::uint64_t seed)
{
    return *lookup(workload, max_ops, seed);
}

void
checkTraceLengthOrExit(const RunConfig &rc)
{
    const std::uint64_t instrs = rc.maxInstrs, warmup = rc.warmupInstrs;
    if (instrs <= pipe::kMaxTraceLength &&
        warmup <= pipe::kMaxTraceLength - instrs)
        return;
    std::fprintf(stderr,
                 "%" PRIu64 " measured + %" PRIu64
                 " warmup instructions exceed the trace-length limit "
                 "of %" PRIu64 " instructions\n",
                 instrs, warmup, pipe::kMaxTraceLength);
    std::exit(2);
}

std::string
runKey(const std::string &workload, const RunConfig &rc)
{
    return runConfigKey(rc) + "#" +
           TraceCache::instance()
               .info(workload, traceLength(rc), rc.traceSeed)
               .identity;
}

CheckpointCache &
CheckpointCache::instance()
{
    static CheckpointCache c;
    return c;
}

CheckpointCache::CheckpointPtr
CheckpointCache::get(const std::string &workload, const RunConfig &rc)
{
    lvp_assert(rc.warmupInstrs > 0,
               "CheckpointCache::get with zero warmup");
    const std::string key = runKey(workload, rc);
    const auto t0 = WallClock::now();
    return cache.get(
        key,
        [&](SimCheckpoint &ck) {
            auto ops = TraceCache::instance().get(
                workload, traceLength(rc), rc.traceSeed);
            pipe::Core core(rc.core, *ops, nullptr);
            core.warmup(rc.warmupInstrs);
            core.saveState(ck.core);
            ck.warmupInstrs = rc.warmupInstrs;
            ck.buildSeconds = secondsSince(t0);
        },
        [&, codec = checkpointCodec(rc.warmupInstrs)]<class Ar>(
            Ar &ar, SimCheckpoint &ck) {
            if constexpr (Ar::reads)
                ck.buildSeconds = secondsSince(t0);
            codec(ar, ck);
        });
}

void
CheckpointCache::publishInterval(TraceState &ts,
                                 const std::string &prefix,
                                 std::uint64_t idx, double buildSeconds)
{
    const std::string key = intervalKey(prefix, idx);
    auto slot = intervals.ensure(key);
    if (!slot->ready.load(std::memory_order_acquire)) {
        auto ck = std::make_shared<SimCheckpoint>();
        ck->warmupInstrs = idx;
        ts.core->saveState(ck->core);
        ck->buildSeconds = buildSeconds;
        cache.publish(key, *ck, checkpointCodec(idx));
        slot->ckpt = std::move(ck);
        slot->ready.store(true, std::memory_order_release);
        intervalsBuilt.fetch_add(1, std::memory_order_relaxed);
    }
    MutexLock lk(ts.claimMx);
    ts.claims.erase(idx);
}

void
CheckpointCache::advanceAndPublish(TraceState &ts,
                                   const std::string &prefix,
                                   std::uint64_t target)
{
    // Chunked so claims registered by batches that arrive *while* we
    // stream are still honored at the next chunk boundary instead of
    // forcing that batch to re-traverse the whole gap.
    constexpr std::uint64_t kClaimChunk = 65536;
    auto segStart = WallClock::now();
    if (ts.pos == target) {
        // Already there (index 0 on a fresh core, or a prior batch
        // parked the cursor exactly here): save without stepping.
        publishInterval(ts, prefix, target, secondsSince(segStart));
        return;
    }
    while (ts.pos < target) {
        std::uint64_t stop = target;
        {
            MutexLock lk(ts.claimMx);
            auto it = ts.claims.upper_bound(ts.pos);
            if (it != ts.claims.end() && *it < stop)
                stop = *it;
        }
        const std::uint64_t step =
            std::min(stop - ts.pos, kClaimChunk);
        ts.core->functionalWarmup(step);
        ts.pos += step;
        ffInstrs.fetch_add(step, std::memory_order_relaxed);

        bool save = ts.pos == target;
        if (!save) {
            MutexLock lk(ts.claimMx);
            save = ts.claims.count(ts.pos) > 0;
        }
        if (save) {
            publishInterval(ts, prefix, ts.pos,
                            secondsSince(segStart));
            segStart = WallClock::now();
        }
    }
}

std::vector<CheckpointCache::CheckpointPtr>
CheckpointCache::getIntervals(const std::string &workload,
                              const RunConfig &rc,
                              const std::vector<std::uint64_t> &indices)
{
    const std::string prefix = runKey(workload, rc);
    auto state = traceStates.ensure(prefix);

    std::vector<std::shared_ptr<IntervalSlot>> slots;
    slots.reserve(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        lvp_assert(i == 0 || indices[i - 1] < indices[i],
                   "interval indices must be ascending and unique");
        slots.push_back(intervals.ensure(intervalKey(prefix, indices[i])));
    }

    // Claim every missing index *before* any building: whichever
    // batch holds the streaming cursor saves a checkpoint at each
    // claimed index it passes, so overlapping concurrent batches
    // traverse each fast-forward gap once instead of once per batch.
    {
        MutexLock lk(state->claimMx);
        for (std::size_t i = 0; i < indices.size(); ++i) {
            if (!slots[i]->ready.load(std::memory_order_acquire))
                state->claims.insert(indices[i]);
        }
    }

    std::vector<CheckpointPtr> out(indices.size());
    CheckpointPtr prev;
    std::uint64_t prevIdx = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const std::uint64_t idx = indices[i];
        if (!slots[i]->ready.load(std::memory_order_acquire)) {
            MutexLock lk(state->buildMx);
            if (slots[i]->ready.load(std::memory_order_acquire)) {
                // Another batch built it while we waited for the
                // cursor; the claim (ours or theirs) is satisfied.
                MutexLock clk(state->claimMx);
                state->claims.erase(idx);
            } else {
                if (!state->ops) {
                    state->ops = TraceCache::instance().get(
                        workload, traceLength(rc), rc.traceSeed);
                }
                // L2 first: an exact-index disk hit both serves this
                // slot and teleports the cursor forward.
                bool fromDisk = false;
                if (CheckpointStore::instance().enabled()) {
                    auto ck = std::make_shared<SimCheckpoint>();
                    const auto t0 = WallClock::now();
                    if (cache.tryLoad(intervalKey(prefix, idx), *ck,
                                      checkpointCodec(idx))) {
                        ck->buildSeconds = secondsSince(t0);
                        if (!state->core) {
                            state->core = std::make_unique<pipe::Core>(
                                rc.core, *state->ops, nullptr);
                            state->pos = 0;
                            installProgressHook(*state->core,
                                                workload +
                                                    " (warmup)");
                        }
                        if (state->pos <= idx) {
                            state->core->restoreState(ck->core);
                            state->pos = idx;
                        }
                        slots[i]->ckpt = std::move(ck);
                        slots[i]->ready.store(
                            true, std::memory_order_release);
                        MutexLock clk(state->claimMx);
                        state->claims.erase(idx);
                        fromDisk = true;
                    }
                }
                if (!fromDisk) {
                    if (!state->core || state->pos > idx) {
                        state->core = std::make_unique<pipe::Core>(
                            rc.core, *state->ops, nullptr);
                        state->pos = 0;
                        installProgressHook(*state->core,
                                            workload + " (warmup)");
                        if (prev && prevIdx <= idx) {
                            state->core->restoreState(prev->core);
                            state->pos = prevIdx;
                        }
                    }
                    advanceAndPublish(*state, prefix, idx);
                }
            }
        } else {
            // Already ready when we got here: drop any stale claim we
            // registered so the cursor does not stop there for us.
            MutexLock clk(state->claimMx);
            state->claims.erase(idx);
        }
        out[i] = slots[i]->ckpt;
        prev = out[i];
        prevIdx = idx;
    }
    return out;
}

void
CheckpointCache::clear()
{
    cache.clear();
    intervals.clear();
    traceStates.clear();
}

pipe::SimStats
runWorkload(const std::string &workload, pipe::LoadValuePredictor *vp,
            const RunConfig &rc)
{
    if (rc.sampleK > 0)
        return runSampledWorkload(workload, vp, rc).stats;
    auto ops = TraceCache::instance().get(workload, traceLength(rc),
                                          rc.traceSeed);
    if (rc.warmupInstrs == 0)
        return runTrace(*ops, vp, rc);
    // Restore the memoized post-warmup state instead of re-simulating
    // the warmup region; bit-identical to the inline path because the
    // warmup region never touches the (freshly constructed) VP.
    auto ckpt = CheckpointCache::instance().get(workload, rc);
    pipe::Core core(rc.core, *ops, vp);
    installProgressHook(core, workload);
    core.restoreState(ckpt->core);
    return core.run();
}

} // namespace sim
} // namespace lvpsim

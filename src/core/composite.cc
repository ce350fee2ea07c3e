#include "core/composite.hh"

#include <algorithm>

#include "common/bitutils.hh"

#include "common/logging.hh"
#include "core/cap.hh"
#include "core/cvp.hh"
#include "core/lvp.hh"
#include "core/sap.hh"

namespace lvpsim
{
namespace vp
{

namespace
{

constexpr unsigned cLVP = unsigned(pipe::ComponentId::LVP);
constexpr unsigned cSAP = unsigned(pipe::ComponentId::SAP);
constexpr unsigned cCVP = unsigned(pipe::ComponentId::CVP);
constexpr unsigned cCAP = unsigned(pipe::ComponentId::CAP);

/**
 * Smart-training priority (paper Section V-D): value over address and
 * context-agnostic over context-aware - LVP, CVP, SAP, CAP.
 */
constexpr unsigned trainingOrder[numComponents] = {cLVP, cCVP, cSAP,
                                                   cCAP};

} // anonymous namespace

CompositePredictor::CompositePredictor(const CompositeConfig &config)
    : cfg(config)
{
    // Live snapshots are bounded by the pipeline's in-flight window
    // plus its refetch stash (a few hundred for the paper's core);
    // pre-size so steady-state probes never allocate.
    snapshots.reserve(512);
    if (cfg.sharedValueArray) {
        std::size_t pool = cfg.sharedPoolEntries;
        if (pool == 0) {
            // Auto-size: shared values are deduplicated, so a pool a
            // quarter the size of the value-predictor entry count is
            // usually ample.
            pool = std::max<std::size_t>(
                64, (cfg.lvpEntries + cfg.cvpEntries) / 4);
        }
        pool = std::size_t(1) << log2i(pool); // power of two
        sharedValues = std::make_unique<SharedValueStore>(pool);
    }
    ValueStore *vs = sharedValues.get();

    comp[cLVP] = std::make_unique<Lvp>(
        cfg.lvpEntries, cfg.seed ^ 0x117b,
        cfg.lvpConfThreshold ? cfg.lvpConfThreshold
                             : lvpConfThreshold,
        vs);
    comp[cSAP] = std::make_unique<Sap>(
        cfg.sapEntries, cfg.seed ^ 0x5a9,
        cfg.sapConfThreshold ? cfg.sapConfThreshold
                             : sapConfThreshold);
    comp[cCVP] = std::make_unique<Cvp>(
        cfg.cvpEntries, cfg.seed ^ 0xc4b,
        cfg.cvpConfThreshold ? cfg.cvpConfThreshold
                             : cvpConfThreshold,
        vs);
    comp[cCAP] = std::make_unique<Cap>(
        cfg.capEntries, cfg.seed ^ 0xca9,
        cfg.capConfThreshold ? cfg.capConfThreshold
                             : capConfThreshold);

    switch (cfg.am) {
      case AmKind::MAm:
        am = std::make_unique<MAm>(cfg.epochInstrs,
                                   cfg.mAmThresholdMpkp);
        break;
      case AmKind::PcAm:
        am = std::make_unique<PcAm>(cfg.pcAmEntries,
                                    cfg.pcAmAccuracyThreshold);
        break;
      case AmKind::PcAmInfinite:
        am = std::make_unique<PcAm>(0, cfg.pcAmAccuracyThreshold);
        break;
      case AmKind::None:
        break;
    }
}

CompositePredictor::~CompositePredictor() = default;

bool
CompositePredictor::componentActive(unsigned c) const
{
    return comp[c]->numEntries() > 0 && !comp[c]->isDonor();
}

void
CompositePredictor::visitConfidences(
    const std::function<void(unsigned, unsigned)> &fn) const
{
    for (const auto &c : comp)
        if (c)
            c->visitConfidences(fn);
}

pipe::Prediction
CompositePredictor::predict(const pipe::LoadProbe &probe)
{
    ++cstats.probes;
    Snapshot &snap = snapshots[probe.token];
    snap = Snapshot{}; // a re-probed token starts afresh
    if (snapshots.size() > peakSnapshots)
        peakSnapshots = snapshots.size();
    for (unsigned c = 0; c < numComponents; ++c) {
        snap.cp[c] = comp[c]->lookup(probe);
        if (snap.cp[c].confident)
            ++snap.numConfident;
    }

    // The AM squashes confident predictions from unreliable
    // components; squashed components still train and are still
    // monitored (their confidence is real, just not trusted).
    std::array<bool, numComponents> usable{};
    for (unsigned c = 0; c < numComponents; ++c) {
        usable[c] = snap.cp[c].confident;
        if (usable[c] && am && am->silenced(c, probe.pc)) {
            usable[c] = false;
            ++cstats.amSquashes;
        }
    }

    // Selection priority (paper Section V-A): value predictors
    // before address predictors (no speculative cache access
    // needed), and context-aware before context-agnostic.
    pipe::Prediction result;
    for (unsigned c : cfg.selectionOrder) {
        if (usable[c]) {
            result = snap.cp[c].pred;
            snap.chosen = std::int8_t(c);
            break;
        }
    }
    return result;
}

void
CompositePredictor::train(const pipe::LoadOutcome &outcome)
{
    auto it = snapshots.find(outcome.token);
    if (it == snapshots.end()) {
        // No snapshot (should not happen for probed loads); train all
        // components conservatively. Without fetch-time keys the
        // context-aware ones skip.
        for (auto &c : comp)
            c->train(outcome, ComponentPrediction{});
        return;
    }
    const Snapshot &snap = it->second;

    // Per-component correctness of the fetch-time predictions.
    ComponentCorrectness cc;
    bool any_confident = false;
    for (unsigned c = 0; c < numComponents; ++c) {
        if (!snap.cp[c].confident) {
            cc[c] = -1;
            continue;
        }
        any_confident = true;
        cc[c] = ComponentPredictor::wouldBeCorrect(snap.cp[c], outcome)
                    ? 1
                    : 0;
    }
    // For the component whose prediction was actually used, trust the
    // pipeline's validation verdict: an address predictor can predict
    // the right address yet deliver a wrong (stale) value. Any other
    // confident component that produced the *same* prediction would
    // have delivered the same wrong data, so it inherits the verdict.
    if (snap.chosen >= 0 && outcome.predictionUsed) {
        const unsigned ch = unsigned(snap.chosen);
        cc[ch] = outcome.predictionCorrect ? 1 : 0;
        if (!outcome.predictionCorrect) {
            const auto &used = snap.cp[ch].pred;
            for (unsigned c = 0; c < numComponents; ++c) {
                if (c == ch || cc[c] < 0)
                    continue;
                const auto &p = snap.cp[c].pred;
                if (p.kind == used.kind && p.addr == used.addr &&
                    p.value == used.value)
                    cc[c] = 0;
            }
        }
    }

    // Figure 4 / Figure 7 bookkeeping.
    ++cstats.confidentHist[snap.numConfident];
    if (snap.numConfident == 1) {
        for (unsigned c = 0; c < numComponents; ++c)
            if (snap.cp[c].confident)
                ++cstats.soloByComponent[c];
    }

    // Accuracy monitor bookkeeping (paper Section V-B).
    if (am) {
        if (any_confident)
            am->recordOutcome(outcome.pc, cc);
        if (outcome.predictionUsed && !outcome.predictionCorrect)
            am->recordFlush(outcome.pc);
    }

    // Fusion usefulness accounting (paper Section V-E).
    if (outcome.predictionUsed && snap.chosen >= 0)
        ++usedThisEpoch[unsigned(snap.chosen)];

    ++cstats.trainEvents;

    std::array<bool, numComponents> do_train;
    do_train.fill(true);
    if (cfg.smartTraining && any_confident) {
        // Smart training (Section V-D): train (a) every component
        // that mispredicted and (b) the cheapest component that
        // predicted correctly; everyone else is left alone.
        for (unsigned c = 0; c < numComponents; ++c)
            do_train[c] = cc[c] == 0;
        for (unsigned c : trainingOrder) {
            if (cc[c] == 1) {
                do_train[c] = true;
                break;
            }
        }
        if (cc[cSAP] == 1 && !do_train[cSAP]) {
            // A skipped SAP entry has a broken stride: invalidate it.
            comp[cSAP]->invalidateEntry(outcome.pc);
            ++cstats.sapInvalidations;
        }
    }
    for (unsigned c = 0; c < numComponents; ++c) {
        if (do_train[c]) {
            comp[c]->train(outcome, snap.cp[c]);
            if (componentActive(c))
                ++cstats.componentsTrained;
        }
    }
    snapshots.erase(it);
}

void
CompositePredictor::abandon(std::uint64_t token)
{
    snapshots.erase(token);
}

void
CompositePredictor::notifyBranch(Addr pc, bool taken, Addr target)
{
    for (auto &c : comp)
        c->notifyBranch(pc, taken, target);
}

void
CompositePredictor::onRetire(std::uint64_t n)
{
    if (am)
        am->onRetire(n);
    if (!cfg.tableFusion)
        return;
    retiredInEpoch += n;
    if (retiredInEpoch >= cfg.epochInstrs)
        epochTick();
}

void
CompositePredictor::epochTick()
{
    retiredInEpoch = 0;
    const double used_per_kilo_threshold =
        cfg.fusionUseThresholdPerKilo;
    const double epoch_kilo = double(cfg.epochInstrs) / 1000.0;

    if (!fused && epochInCycle < cfg.fusionClassifyEpochs) {
        for (unsigned c = 0; c < numComponents; ++c) {
            const double per_kilo =
                double(usedThisEpoch[c]) / epoch_kilo;
            if (per_kilo < used_per_kilo_threshold)
                ++epochsBelowThreshold[c];
            usedTotal[c] += usedThisEpoch[c];
        }
    }
    for (auto &u : usedThisEpoch)
        u = 0;

    ++epochInCycle;
    if (!fused && epochInCycle == cfg.fusionClassifyEpochs)
        performFusion();
    if (epochInCycle >= cfg.fusionCycleEpochs) {
        revertFusion();
        epochInCycle = 0;
        epochsBelowThreshold.fill(0);
        usedTotal.fill(0);
    }
}

void
CompositePredictor::performFusion()
{
    // Donors: below the usefulness threshold in at least one of the N
    // classification epochs. Receivers: everyone else.
    std::vector<unsigned> donors, receivers;
    for (unsigned c = 0; c < numComponents; ++c) {
        if (comp[c]->numEntries() == 0)
            continue; // absent components neither donate nor receive
        if (epochsBelowThreshold[c] > 0)
            donors.push_back(c);
        else
            receivers.push_back(c);
    }
    if (donors.empty() || receivers.empty())
        return;

    // Most useful receivers first; donors are dealt round-robin, so
    // 1 donor goes to the best receiver, 2 donors to two receivers,
    // and 3 donors all to the single receiver (paper Section V-E).
    std::sort(receivers.begin(), receivers.end(),
              [this](unsigned a, unsigned b) {
                  return usedTotal[a] > usedTotal[b];
              });
    std::array<unsigned, numComponents> extra_ways{};
    for (std::size_t i = 0; i < donors.size(); ++i)
        ++extra_ways[receivers[i % receivers.size()]];

    for (unsigned c : donors)
        comp[c]->donateTable();
    for (unsigned c : receivers)
        if (extra_ways[c] > 0)
            comp[c]->receiveWays(extra_ways[c]);
    fused = true;
    ++numFusions;
}

void
CompositePredictor::revertFusion()
{
    if (!fused)
        return;
    for (auto &c : comp)
        c->unfuse();
    fused = false;
}

std::uint64_t
CompositePredictor::storageBits() const
{
    std::uint64_t bits = 0;
    if (cfg.tableFusion) {
        // Fusion assumes one common table width - 81 bits (paper
        // Section V-E).
        std::uint64_t entries = 0;
        for (const auto &c : comp)
            entries += c->numEntries();
        bits = entries * 81;
    } else {
        for (const auto &c : comp)
            bits += c->storageBits();
    }
    if (sharedValues)
        bits += sharedValues->poolBits();
    if (am)
        bits += am->storageBits();
    return bits;
}

void
CompositePredictor::dumpStats(std::ostream &os) const
{
    os << "composite: probes=" << cstats.probes
       << " amSquashes=" << cstats.amSquashes
       << " sapInvalidations=" << cstats.sapInvalidations
       << " fusions=" << numFusions
       << " avgTrained=" << cstats.avgTrainedPerLoad() << "\n";
    os << "  confident-count histogram:";
    for (std::size_t i = 0; i < cstats.confidentHist.size(); ++i)
        os << " [" << i << "]=" << cstats.confidentHist[i];
    os << "\n";
}

std::unique_ptr<CompositePredictor>
makeSinglePredictor(pipe::ComponentId id, std::size_t entries,
                    std::uint64_t seed)
{
    CompositeConfig cfg;
    cfg.lvpEntries = id == pipe::ComponentId::LVP ? entries : 0;
    cfg.sapEntries = id == pipe::ComponentId::SAP ? entries : 0;
    cfg.cvpEntries = id == pipe::ComponentId::CVP ? entries : 0;
    cfg.capEntries = id == pipe::ComponentId::CAP ? entries : 0;
    cfg.seed = seed;
    return std::make_unique<CompositePredictor>(cfg);
}

} // namespace vp
} // namespace lvpsim

/**
 * @file
 * The paper's composite load value predictor (Section V): LVP, SAP,
 * CVP and CAP running in parallel, with
 *
 *   - selection among confident components that prefers value over
 *     address predictions and context-aware over context-agnostic
 *     (CVP > LVP > CAP > SAP),
 *   - an optional Accuracy Monitor that squashes confident
 *     predictions from unreliable components (Section V-B),
 *   - heterogeneous per-component table sizes (Section V-C),
 *   - the smart training policy (Section V-D), and
 *   - epoch-based table fusion (Section V-E).
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "common/flat_map.hh"
#include "core/accuracy_monitor.hh"
#include "core/component.hh"
#include "core/lvp_interface.hh"
#include "core/value_store.hh"

namespace lvpsim
{
namespace vp
{

enum class AmKind { None, MAm, PcAm, PcAmInfinite };

struct CompositeConfig
{
    /// Entries per component (0 = leave the component out).
    /// cvpEntries is the total across CVP's three tables.
    std::size_t lvpEntries = 1024;
    std::size_t sapEntries = 1024;
    std::size_t cvpEntries = 1024;
    std::size_t capEntries = 1024;

    /// Per-component confidence threshold overrides (0 = paper value
    /// from Table IV). Used by the confidence ablation bench.
    unsigned lvpConfThreshold = 0;
    unsigned sapConfThreshold = 0;
    unsigned cvpConfThreshold = 0;
    unsigned capConfThreshold = 0;

    /// Confident-selection priority (indices are ComponentId values).
    /// Paper default: value before address, context-aware first.
    std::array<std::uint8_t, 4> selectionOrder{2, 0, 3, 1};

    AmKind am = AmKind::None;
    std::size_t pcAmEntries = 64;
    double pcAmAccuracyThreshold = 0.95;
    double mAmThresholdMpkp = 3.0;

    bool smartTraining = false;

    /// Decoupled, shared value array for LVP+CVP (paper Section
    /// III-B closing remark): entries shrink from 81 bits to
    /// tag+conf+pointer, at the cost of pool-capacity aliasing.
    /// 0 pool entries = auto-size to (lvp+cvp entries)/4.
    bool sharedValueArray = false;
    std::size_t sharedPoolEntries = 0;

    bool tableFusion = false;
    unsigned fusionClassifyEpochs = 5;  ///< N
    unsigned fusionCycleEpochs = 25;    ///< M (>> N)
    double fusionUseThresholdPerKilo = 20.0;

    /// Epoch length for AM and fusion, in retired instructions. The
    /// paper uses one million; scale it down for short simulations.
    std::uint64_t epochInstrs = 1000000;

    std::uint64_t seed = 0x5eed;

    /** Uniform table sizes at a given total entry budget. */
    static CompositeConfig
    homogeneous(std::size_t total_entries)
    {
        CompositeConfig c;
        c.lvpEntries = total_entries / 4;
        c.sapEntries = total_entries / 4;
        c.cvpEntries = total_entries / 4;
        c.capEntries = total_entries / 4;
        return c;
    }

    /** Everything on: PC-AM + smart training + fusion. */
    static CompositeConfig
    bestOf(std::size_t total_entries)
    {
        CompositeConfig c = homogeneous(total_entries);
        c.am = AmKind::PcAm;
        c.smartTraining = true;
        c.tableFusion = true;
        return c;
    }
};

/** Composite-internal statistics backing Figures 4 and 7. */
struct CompositeStats
{
    std::uint64_t probes = 0;
    std::uint64_t trainEvents = 0;
    std::uint64_t componentsTrained = 0;
    std::uint64_t sapInvalidations = 0;
    std::uint64_t amSquashes = 0;

    /// Retired eligible loads by number of confident components.
    std::array<std::uint64_t, numComponents + 1> confidentHist{};
    /// ... and, when exactly one, which component it was.
    std::array<std::uint64_t, numComponents> soloByComponent{};

    double
    avgTrainedPerLoad() const
    {
        return trainEvents
                   ? double(componentsTrained) / double(trainEvents)
                   : 0.0;
    }
};

class CompositePredictor : public pipe::LoadValuePredictor
{
  public:
    explicit CompositePredictor(const CompositeConfig &cfg);
    ~CompositePredictor() override;

    pipe::Prediction predict(const pipe::LoadProbe &probe) override;
    void train(const pipe::LoadOutcome &outcome) override;
    void abandon(std::uint64_t token) override;
    void notifyBranch(Addr pc, bool taken, Addr target) override;
    void onRetire(std::uint64_t n) override;
    std::uint64_t storageBits() const override;
    const char *name() const override { return "composite"; }
    void dumpStats(std::ostream &os) const override;

    const CompositeStats &compositeStats() const { return cstats; }
    const CompositeConfig &config() const { return cfg; }

    /** Is component @p c configured and currently not a donor? */
    bool componentActive(unsigned c) const;

    /** Number of fusion events performed so far (for tests). */
    unsigned fusionEvents() const { return numFusions; }
    bool currentlyFused() const { return fused; }

    /** Probes not yet resolved by train()/abandon(); 0 when idle. */
    std::size_t pendingSnapshots() const { return snapshots.size(); }
    std::size_t pendingProbes() const override
    {
        return snapshots.size();
    }
    std::size_t pendingProbesPeak() const override
    {
        return peakSnapshots;
    }

    /**
     * Visit every live confidence counter across all configured
     * components as (value, max_level). qa state-bounds checks
     * assert value <= max_level after fuzzed update streams.
     */
    void visitConfidences(
        const std::function<void(unsigned, unsigned)> &fn) const;

  private:
    /** One probe's fetch-time state: what each component reported
     *  (CVP/CAP's table keys included), kept until train/abandon. */
    struct Snapshot
    {
        std::array<ComponentPrediction, numComponents> cp{};
        std::int8_t chosen = -1;
        std::uint8_t numConfident = 0;
    };

    void epochTick();
    void performFusion();
    void revertFusion();

    CompositeConfig cfg;
    std::unique_ptr<SharedValueStore> sharedValues;
    std::array<std::unique_ptr<ComponentPredictor>, numComponents>
        comp;
    std::unique_ptr<AccuracyMonitor> am;
    FlatMap<std::uint64_t, Snapshot> snapshots;
    std::size_t peakSnapshots = 0;
    CompositeStats cstats;

    // Fusion machinery (Section V-E).
    std::uint64_t retiredInEpoch = 0;
    unsigned epochInCycle = 0;
    std::array<std::uint64_t, numComponents> usedThisEpoch{};
    std::array<std::uint64_t, numComponents> usedTotal{};
    std::array<unsigned, numComponents> epochsBelowThreshold{};
    bool fused = false;
    unsigned numFusions = 0;
};

/** A single component predictor run standalone (paper Figure 3). */
std::unique_ptr<CompositePredictor>
makeSinglePredictor(pipe::ComponentId id, std::size_t entries,
                    std::uint64_t seed = 0x5eed);

} // namespace vp
} // namespace lvpsim


/**
 * @file
 * The four component load value predictors (LVP, SAP, CVP, CAP) and
 * the skeleton they share. The paper builds all four the same way
 * (Section III-B): PC- or context-indexed tagged tables whose entries
 * carry an FPC confidence counter. They differ only in the index and
 * tag hash, the entry payload, and the lookup and train rules.
 *
 *   - ComponentPredictor is the interface the composite drives; a
 *     component can also run alone via makeSinglePredictor().
 *   - TableComponent<Entry, N> writes the shared table lifecycle once:
 *     the table set, the confidence threshold and FPC rng, the donor
 *     state and table fusion hooks (Section V-E), and the storage
 *     accounting.
 *   - ValueComponent<N> adds what the value predictors (LVP, CVP)
 *     share: entries that reference a ValueStore, and the last-value
 *     train rule.
 *
 * Protocol: for every probed load, lookup() is called once at fetch.
 * At retire, train() receives the outcome together with the
 * ComponentPrediction that lookup() returned; a squashed probe is
 * simply never trained. Context-aware components (CVP, CAP) record
 * their fetch-time table keys in that ComponentPrediction, because the
 * branch history has moved on by retirement; the composite keeps it in
 * its per-token snapshot.
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "common/bitutils.hh"
#include "common/random.hh"
#include "common/sat_counter.hh"
#include "common/tagged_table.hh"
#include "core/lvp_interface.hh"
#include "core/value_store.hh"
#include "core/vp_params.hh"

namespace lvpsim
{
namespace vp
{

/** Where a lookup lands in one table. */
struct TableKey
{
    std::uint64_t index = 0;
    std::uint64_t tag = 0;
};

/** The most tables any component keeps (CVP's three). */
constexpr unsigned maxComponentTables = 3;

/** What a component reports at fetch. */
struct ComponentPrediction
{
    bool confident = false;
    /// Fetch-time table keys of a context-aware component (CVP, CAP);
    /// `keyed` stays false when its tables were disabled at lookup,
    /// and train() then skips. Stored split so that the composite's
    /// four-component snapshot stays small.
    bool keyed = false;
    std::array<std::uint16_t, maxComponentTables> tags{};
    std::array<std::uint64_t, maxComponentTables> indices{};
    pipe::Prediction pred{};

    TableKey key(unsigned t) const { return {indices[t], tags[t]}; }

    void
    setKey(unsigned t, const TableKey &k)
    {
        indices[t] = k.index;
        tags[t] = std::uint16_t(k.tag);
    }
};
static_assert(tagBits <= 16, "ComponentPrediction::tags holds a tag");

/** The key of the PC-indexed components (LVP, SAP). */
inline TableKey
pcKey(Addr pc)
{
    return {pc >> 2, ((pc >> 2) ^ (pc >> 16)) & mask(tagBits)};
}

/** The 2-bit size field of the address predictors (SAP, CAP). */
inline std::uint8_t
sizeLog2Of(unsigned size)
{
    return std::uint8_t(log2i(size ? size : 1));
}

class ComponentPredictor
{
  public:
    explicit ComponentPredictor(pipe::ComponentId component_id)
        : componentId(component_id)
    {}

    virtual ~ComponentPredictor() = default;

    pipe::ComponentId id() const { return componentId; }

    /** Probe at fetch (high-confidence prediction or nothing). */
    virtual ComponentPrediction lookup(const pipe::LoadProbe &p) = 0;

    /**
     * Retirement-order training with the architectural outcome and
     * what lookup() returned for this load at fetch (a default
     * ComponentPrediction when the load was never probed: the
     * context-aware components then have no keys and skip).
     */
    virtual void train(const pipe::LoadOutcome &o,
                       const ComponentPrediction &fetched) = 0;

    /**
     * Would this component's fetch-time prediction have been correct
     * for this outcome? Used by the accuracy monitors and smart
     * training.
     */
    static bool
    wouldBeCorrect(const ComponentPrediction &cp,
                   const pipe::LoadOutcome &o)
    {
        if (!cp.confident)
            return false;
        if (cp.pred.isValue())
            return cp.pred.value == o.value;
        return cp.pred.addr == o.effAddr;
    }

    /** Smart training: invalidate the entry for this PC (SAP only). */
    virtual void invalidateEntry(Addr pc) { (void)pc; }

    /** History maintenance (context-aware components). */
    virtual void notifyBranch(Addr pc, bool taken, Addr target)
    {
        (void)pc; (void)taken; (void)target;
    }

    // ---- Table fusion hooks (Section V-E) ---------------------------
    /** Become a donor: table flushed and repurposed; stop predicting. */
    virtual void donateTable() = 0;
    /** Receive @p donor_tables extra ways' worth of storage. */
    virtual void receiveWays(unsigned donor_tables) = 0;
    /** Revert to the unfused configuration. */
    virtual void unfuse() = 0;
    virtual bool isDonor() const = 0;

    /**
     * Visit every live confidence counter as (value, max_level).
     * Used by the qa state-bounds checks: a counter outside
     * [0, max_level] means a saturation bug.
     */
    virtual void visitConfidences(
        const std::function<void(unsigned, unsigned)> &fn) const = 0;

    /** Bit-exact storage (excluding any donated/received ways; the
     *  fusion design keeps total storage constant). */
    std::uint64_t
    storageBits() const
    {
        return std::uint64_t(numEntries()) * entryBits();
    }
    virtual std::size_t numEntries() const = 0;
    virtual unsigned entryBits() const = 0;

  private:
    pipe::ComponentId componentId;
};

/**
 * The shared skeleton: @p NumTables direct-mapped tagged tables of
 * @p EntryT (each with an FpcCounter `conf`), one confidence threshold
 * and FPC vector, and the donor state. A component with no entries
 * (table 0 unconfigured) is inert, as is a donor.
 */
template <typename EntryT, unsigned NumTables = 1>
class TableComponent : public ComponentPredictor
{
  public:
    static constexpr unsigned numTables = NumTables;
    static_assert(NumTables <= maxComponentTables);

    void
    donateTable() final
    {
        donor = true;
        for (auto &t : tables)
            t.flushAll();
    }

    void
    receiveWays(unsigned donor_tables) final
    {
        if (configured())
            for (auto &t : tables)
                t.setWays(1 + donor_tables);
    }

    void
    unfuse() final
    {
        if (donor) {
            donor = false;
            for (auto &t : tables)
                t.flushAll();
        } else if (configured()) {
            for (auto &t : tables)
                t.setWays(1);
        }
    }

    bool isDonor() const final { return donor; }

    void
    visitConfidences(
        const std::function<void(unsigned, unsigned)> &fn) const final
    {
        for (const auto &t : tables)
            t.forEachValid([&](const auto &w) {
                fn(w.payload.conf.value(), fpc.maxLevel());
            });
    }

    std::size_t
    numEntries() const final
    {
        std::size_t n = 0;
        for (const auto &t : tables)
            n += t.numSets();
        return n;
    }

  protected:
    /** @param sets sets per table; table 0 at 0 leaves the component
     *  out. */
    TableComponent(pipe::ComponentId component_id,
                   const std::array<std::size_t, NumTables> &sets,
                   std::uint64_t seed, unsigned conf_threshold,
                   const FpcVector &fpc_vector)
        : ComponentPredictor(component_id), rng(seed),
          confThreshold(conf_threshold), fpc(fpc_vector)
    {
        if (sets[0] > 0)
            for (unsigned t = 0; t < NumTables; ++t)
                tables[t].configure(sets[t], 1);
    }

    bool configured() const { return !tables[0].empty(); }
    bool disabled() const { return donor || !configured(); }

    /** The entry at @p key in table @p t if it is confident. The probe
     *  refreshes the way's LRU stamp either way. */
    const EntryT *
    confidentAt(unsigned t, const TableKey &key)
    {
        const auto *way = tables[t].lookup(key.index, key.tag);
        return way && way->payload.conf.atLeast(confThreshold)
                   ? &way->payload
                   : nullptr;
    }

    /** One more confirming observation for @p e. */
    void strengthen(EntryT &e) { e.conf.increment(fpc, rng); }

    void
    predictValue(ComponentPrediction &cp, Value v) const
    {
        cp.confident = true;
        cp.pred.kind = pipe::Prediction::Kind::Value;
        cp.pred.value = v;
        cp.pred.component = id();
    }

    void
    predictAddress(ComponentPrediction &cp, Addr a) const
    {
        cp.confident = true;
        cp.pred.kind = pipe::Prediction::Kind::Address;
        cp.pred.addr = a;
        cp.pred.component = id();
    }

    std::array<TaggedTable<EntryT>, NumTables> tables;

  private:
    Xoshiro256 rng;
    unsigned confThreshold;
    const FpcVector &fpc;
    bool donor = false;
};

/** A value predictor's entry: a reference into its ValueStore. */
struct ValueEntry
{
    ValueStore::Ref value{};
    FpcCounter conf;
};

/**
 * The value predictors (LVP, CVP): entries reference a ValueStore
 * (inline 64-bit values, or the shared pool of paper Section III-B)
 * and train by last value.
 */
template <unsigned NumTables>
class ValueComponent : public TableComponent<ValueEntry, NumTables>
{
    using Base = TableComponent<ValueEntry, NumTables>;

  protected:
    /** @param value_store shared value array; nullptr = inline. */
    ValueComponent(pipe::ComponentId component_id,
                   const std::array<std::size_t, NumTables> &sets,
                   std::uint64_t seed, unsigned conf_threshold,
                   const FpcVector &fpc_vector, ValueStore *value_store)
        : Base(component_id, sets, seed, conf_threshold, fpc_vector),
          values(value_store ? value_store : &inlineValues)
    {}

    /** The confident value at @p key in table @p t. A recycled
     *  shared-pool slot reads as "no prediction". */
    std::optional<Value>
    confidentValue(unsigned t, const TableKey &key)
    {
        const ValueEntry *e = this->confidentAt(t, key);
        return e ? values->load(e->value) : std::nullopt;
    }

    /** The last-value train rule (paper Section III-B.1). */
    void
    trainLastValue(unsigned t, const TableKey &key, Value v)
    {
        bool hit = false;
        auto &way = this->tables[t].allocate(key.index, key.tag, &hit);
        const auto current = values->load(way.payload.value);
        if (hit && current && *current == v) {
            this->strengthen(way.payload);
        } else {
            way.payload.value = values->store(v);
            way.payload.conf.reset();
        }
    }

    unsigned refBits() const { return values->refBits(); }

  private:
    InlineValueStore inlineValues;
    ValueStore *values;
};

} // namespace vp
} // namespace lvpsim

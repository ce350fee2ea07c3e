/**
 * @file
 * CVP: Context-aware Context Value Predictor (paper Section III-B.2).
 *
 * A VTAGE-like predictor with three tagged tables (no untagged
 * last-value table), each indexed by a hash of the load PC and a
 * geometric sample of the branch path history. Entries are 81 bits
 * (14-bit tag, 64-bit value, 3-bit FPC confidence); the threshold of
 * 4 corresponds to ~16 consecutive observations.
 *
 * Because training happens at retirement with a later history, lookup
 * records the fetch-time keys in its ComponentPrediction and train
 * reads them back.
 */

#pragma once

#include <vector>

#include "branch/history.hh"
#include "core/component.hh"

namespace lvpsim
{
namespace vp
{

class Cvp : public ValueComponent<3>
{
  public:
    /**
     * @param entries total entries across the three tables, split
     * {1/2, 1/4, 1/4} (shortest history gets the largest table, as in
     * VTAGE) and rounded down to powers of two. Folded-history
     * indices only distribute well over power-of-two tables: the
     * fold values of a periodic branch sequence are structurally
     * related, and a modulo by an arbitrary size can alias whole
     * context families onto each other.
     */
    explicit Cvp(std::size_t entries, std::uint64_t seed = 0xc4b,
                 unsigned conf_threshold = cvpConfThreshold,
                 ValueStore *value_store = nullptr)
        : ValueComponent(pipe::ComponentId::CVP, split(entries), seed,
                         conf_threshold, cvpFpc(), value_store)
    {
        if (!configured())
            return;
        for (unsigned t = 0; t < numTables; ++t) {
            // Two history events (bits) are pushed per branch.
            const unsigned bits = 2 * cvpHistLengths[t];
            foldIdx.emplace_back(
                bits, std::max(1u, ceilLog2(tables[t].numSets())));
            foldTag1.emplace_back(bits, tagBits);
            foldTag2.emplace_back(bits, tagBits - 1);
        }
    }

    ComponentPrediction
    lookup(const pipe::LoadProbe &p) override
    {
        ComponentPrediction cp;
        if (disabled())
            return cp;
        cp.keyed = true;
        for (unsigned t = 0; t < numTables; ++t)
            cp.setKey(t, key(p.pc, t));
        // Longest history first.
        for (int t = numTables - 1; t >= 0; --t) {
            if (auto v = confidentValue(t, cp.key(t))) {
                predictValue(cp, *v);
                break;
            }
        }
        return cp;
    }

    void
    train(const pipe::LoadOutcome &o,
          const ComponentPrediction &fetched) override
    {
        if (!fetched.keyed || disabled())
            return;
        // All three tables train like LVP (paper Section III-B.2).
        for (unsigned t = 0; t < numTables; ++t)
            trainLastValue(t, fetched.key(t), o.value);
    }

    void
    notifyBranch(Addr pc, bool taken, Addr target) override
    {
        (void)target;
        if (!configured())
            return;
        // Raw path register (TAGE's "phist"): folded histories of a
        // periodic branch sequence can collapse to a handful of
        // values, so the index also mixes in unfolded recent path
        // bits, exactly as TAGE does.
        pathHist = (pathHist << 2) | (taken ? 2 : 0) |
                   ((pc >> 2) & 1);
        pushHistoryBit(taken ? 1 : 0);
        pushHistoryBit(unsigned((pc >> 2) & 1));
    }

    unsigned
    entryBits() const override
    {
        return tagBits + cvpConfBits + refBits();
    }

  private:
    /** Per-table sets; all 0 below 4 entries (CVP left out). */
    static std::array<std::size_t, numTables>
    split(std::size_t entries)
    {
        if (entries < 4)
            return {};
        auto pow2floor = [](std::size_t x) {
            return std::size_t(1) << log2i(x);
        };
        return {pow2floor(entries / 2), pow2floor(entries / 4),
                pow2floor(entries / 4)};
    }

    void
    pushHistoryBit(unsigned bit)
    {
        ring.push(bit);
        for (unsigned t = 0; t < numTables; ++t) {
            foldIdx[t].update(ring);
            foldTag1[t].update(ring);
            foldTag2[t].update(ring);
        }
    }

    TableKey
    key(Addr pc, unsigned t) const
    {
        // The folded history and the raw path are both GF(2)-linear
        // functions of the same window bits; on loopy code their XOR
        // can collapse into a small subspace and alias whole context
        // families. A nonlinear finalizer keeps distinct contexts in
        // distinct slots (the inputs are distinct; only the mixing
        // must be non-degenerate).
        const unsigned raw_bits =
            std::min(2 * cvpHistLengths[t], 20u);
        return {mix64((pc >> 2) ^
                      (std::uint64_t(foldIdx[t].value()) << 24) ^
                      (pathHist & mask(raw_bits)) ^
                      (std::uint64_t(t) << 56)),
                ((pc >> 2) ^ (pc >> 16) ^ foldTag1[t].value() ^
                 (std::uint64_t(foldTag2[t].value()) << 1)) &
                    mask(tagBits)};
    }

    std::vector<branch::FoldedHistory> foldIdx;
    std::vector<branch::FoldedHistory> foldTag1;
    std::vector<branch::FoldedHistory> foldTag2;
    branch::HistoryRing ring;
    std::uint64_t pathHist = 0;
};

} // namespace vp
} // namespace lvpsim

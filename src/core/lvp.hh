/**
 * @file
 * LVP: Last Value Predictor (paper Section III-B.1).
 *
 * PC-indexed, tagged table; each entry is a 14-bit tag, 64-bit value
 * and 3-bit FPC confidence counter (81 bits). Prediction requires a
 * tag match and confidence >= 7 (effective 64 consecutive
 * observations).
 */

#pragma once

#include "core/component.hh"

namespace lvpsim
{
namespace vp
{

class Lvp : public ValueComponent<1>
{
  public:
    /**
     * @param value_store optional shared value array (paper Section
     *        III-B storage optimization); nullptr = inline values.
     */
    explicit Lvp(std::size_t entries, std::uint64_t seed = 0x117b,
                 unsigned conf_threshold = lvpConfThreshold,
                 ValueStore *value_store = nullptr)
        : ValueComponent(pipe::ComponentId::LVP, {entries}, seed,
                         conf_threshold, lvpFpc(), value_store)
    {}

    ComponentPrediction
    lookup(const pipe::LoadProbe &p) override
    {
        ComponentPrediction cp;
        if (disabled())
            return cp;
        if (auto v = confidentValue(0, pcKey(p.pc)))
            predictValue(cp, *v);
        return cp;
    }

    void
    train(const pipe::LoadOutcome &o, const ComponentPrediction &) override
    {
        if (!disabled())
            trainLastValue(0, pcKey(o.pc), o.value);
    }

    unsigned
    entryBits() const override
    {
        return tagBits + lvpConfBits + refBits();
    }
};

} // namespace vp
} // namespace lvpsim

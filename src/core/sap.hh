/**
 * @file
 * SAP: Stride Address Predictor (paper Section III-B.1).
 *
 * PC-indexed, tagged table; each entry is a 14-bit tag, 49-bit last
 * virtual address, 2-bit FPC confidence, 10-bit stride and 2-bit load
 * size (77 bits). Prediction requires confidence >= 3 (effective 9
 * consecutive same-stride observations) and accounts for in-flight
 * occurrences of the load, as in EVES's stride predictor.
 */

#pragma once

#include "core/component.hh"

namespace lvpsim
{
namespace vp
{

struct SapEntry
{
    Addr lastAddr = 0;
    std::int64_t stride = 0; ///< constrained to 10 signed bits
    std::uint8_t sizeLog2 = 0;
    bool seenOnce = false;
    FpcCounter conf;
};

class Sap : public TableComponent<SapEntry>
{
  public:
    explicit Sap(std::size_t entries, std::uint64_t seed = 0x5a9,
                 unsigned conf_threshold = sapConfThreshold)
        : TableComponent(pipe::ComponentId::SAP, {entries}, seed,
                         conf_threshold, sapFpc())
    {}

    ComponentPrediction
    lookup(const pipe::LoadProbe &p) override
    {
        ComponentPrediction cp;
        if (disabled())
            return cp;
        if (const SapEntry *e = confidentAt(0, pcKey(p.pc))) {
            // The table holds the address of the last *retired*
            // instance; step the stride once per in-flight instance
            // plus once for this instance.
            const std::int64_t steps =
                std::int64_t(p.inflightSamePc) + 1;
            predictAddress(cp, Addr(std::int64_t(e->lastAddr) +
                                    steps * e->stride) &
                                   mask(vaddrBits));
        }
        return cp;
    }

    void
    train(const pipe::LoadOutcome &o, const ComponentPrediction &) override
    {
        if (disabled())
            return;
        const TableKey key = pcKey(o.pc);
        bool hit = false;
        SapEntry &e = tables[0].allocate(key.index, key.tag, &hit).payload;
        if (!hit) {
            e.lastAddr = o.effAddr & mask(vaddrBits);
            e.stride = 0;
            e.sizeLog2 = sizeLog2Of(o.size);
            e.conf.reset();
            e.seenOnce = true;
            return;
        }
        const std::int64_t delta =
            std::int64_t(o.effAddr & mask(vaddrBits)) -
            std::int64_t(e.lastAddr);
        if (fitsSigned(delta, sapStrideBits)) {
            if (e.seenOnce && delta == e.stride) {
                strengthen(e);
            } else {
                e.stride = delta;
                e.conf.reset();
            }
        } else {
            // Stride does not fit the 10-bit field: unpredictable.
            e.stride = 0;
            e.conf.reset();
        }
        e.lastAddr = o.effAddr & mask(vaddrBits);
        e.sizeLog2 = sizeLog2Of(o.size);
        e.seenOnce = true;
    }

    /** Smart training: a skipped SAP entry has a broken stride anyway
     *  (paper Section V-D), so drop it. */
    void
    invalidateEntry(Addr pc) override
    {
        if (!disabled()) {
            const TableKey key = pcKey(pc);
            tables[0].invalidate(key.index, key.tag);
        }
    }

    unsigned entryBits() const override { return sapEntryBits; }
};

} // namespace vp
} // namespace lvpsim

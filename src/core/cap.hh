/**
 * @file
 * CAP: Context Address Predictor (paper Section III-B.2), modeled on
 * DLVP [3] ("load value prediction via PATH-based address
 * prediction"). One tagged table indexed by a hash of the load PC and
 * the load path history; entries are 67 bits (14-bit tag, 49-bit
 * virtual address, 2-bit confidence, 2-bit size). The lowest
 * threshold of all components: 4 consecutive observations of a given
 * path/PC.
 *
 * The path here is the recent control-flow path (a bounded window of
 * ~16 branches), which matches the paper's Table V example: inside a
 * long inner loop the path stops changing after the window fills, so
 * CAP can distinguish (and predict) only the first ~16 iterations.
 */

#pragma once

#include "core/component.hh"

namespace lvpsim
{
namespace vp
{

struct CapEntry
{
    Addr addr = 0;
    std::uint8_t sizeLog2 = 0;
    FpcCounter conf;
};

class Cap : public TableComponent<CapEntry>
{
  public:
    explicit Cap(std::size_t entries, std::uint64_t seed = 0xca9,
                 unsigned conf_threshold = capConfThreshold)
        : TableComponent(pipe::ComponentId::CAP, {entries}, seed,
                         conf_threshold, capFpc())
    {}

    ComponentPrediction
    lookup(const pipe::LoadProbe &p) override
    {
        ComponentPrediction cp;
        if (disabled())
            return cp;
        cp.keyed = true;
        cp.setKey(0, key(p.pc));
        if (const CapEntry *e = confidentAt(0, cp.key(0)))
            predictAddress(cp, e->addr);
        return cp;
    }

    void
    train(const pipe::LoadOutcome &o,
          const ComponentPrediction &fetched) override
    {
        if (!fetched.keyed || disabled())
            return;
        const TableKey k = fetched.key(0);
        bool hit = false;
        CapEntry &e = tables[0].allocate(k.index, k.tag, &hit).payload;
        const Addr a = o.effAddr & mask(vaddrBits);
        const std::uint8_t sz = sizeLog2Of(o.size);
        if (hit && e.addr == a && e.sizeLog2 == sz) {
            strengthen(e);
        } else {
            e.addr = a;
            e.sizeLog2 = sz;
            e.conf.reset();
        }
    }

    void
    notifyBranch(Addr pc, bool taken, Addr target) override
    {
        (void)target;
        // Control-flow path: a rolling window of ~16 branches (the
        // 64-bit register shifts 4 bits per branch).
        path = (path << 4) ^ ((pc >> 2) & 0x7fff) ^
               (taken ? 0x9 : 0x0);
    }

    unsigned entryBits() const override { return capEntryBits; }

  private:
    TableKey
    key(Addr pc) const
    {
        // Nonlinear mix: see Cvp::key for why a plain XOR of
        // path-derived values can alias context families.
        return {mix64((pc >> 2) ^ path),
                ((pc >> 2) ^ (pc >> 16) ^ (path >> 3)) & mask(tagBits)};
    }

    std::uint64_t path = 0;
};

} // namespace vp
} // namespace lvpsim

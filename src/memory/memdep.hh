/**
 * @file
 * Memory dependence predictor "similar to Alpha 21264" (paper Table
 * III): a PC-indexed wait table. A load whose entry has the wait bit
 * set is held until all older stores have computed their addresses;
 * otherwise it speculates. A memory-order violation sets the bit; the
 * whole table is cleared periodically so stale conservatism decays.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace lvpsim
{
namespace mem
{

/** MemDepPredictor's checkpointed state; the clear interval comes
 *  from the constructor. */
struct MemDepPredictorState
{
    std::vector<bool> waitBits;
    std::uint64_t accesses = 0;
    std::uint64_t numViolations = 0;
};

class MemDepPredictor : private MemDepPredictorState
{
  public:
    using State = MemDepPredictorState;

    explicit MemDepPredictor(std::size_t entries = 1024,
                             std::uint64_t clear_interval = 32768)
        : clearInterval(clear_interval)
    {
        waitBits.assign(entries, false);
    }

    /** Should this load wait for older stores? */
    bool
    shouldWait(Addr pc)
    {
        if (++accesses % clearInterval == 0)
            std::fill(waitBits.begin(), waitBits.end(), false);
        return waitBits[index(pc)];
    }

    /** A speculating load was hit by an older store: train to wait. */
    void
    recordViolation(Addr pc)
    {
        waitBits[index(pc)] = true;
        ++numViolations;
    }

    std::uint64_t violations() const { return numViolations; }

    void saveState(State &s) const { s = *this; }
    void restoreState(const State &s) { State::operator=(s); }

  private:
    std::size_t index(Addr pc) const { return (pc >> 2) % waitBits.size(); }

    // lvplint: allow(state-snapshot) -- construction-time config
    std::uint64_t clearInterval;
};

} // namespace mem
} // namespace lvpsim


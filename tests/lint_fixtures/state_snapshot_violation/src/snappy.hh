/** Fixture: a checkpointable class whose State has a field its io
 *  codec skips (`clock` is the first seeded violation), and a data
 *  member outside its State with no suppression (`hits` is the
 *  second). */

#pragma once

#include <cstdint>
#include <vector>

namespace fixture
{

struct CounterState
{
    std::vector<std::uint64_t> table;
    std::uint64_t clock = 0;
};

class Counter : private CounterState
{
  public:
    using State = CounterState;

    void saveState(State &s) const { s = *this; }
    void restoreState(const State &s) { State::operator=(s); }

  private:
    std::uint64_t hits = 0;
};

template <class Ar>
void
io(Ar &ar, CounterState &s)
{
    ar.vec(s.table);
}

} // namespace fixture

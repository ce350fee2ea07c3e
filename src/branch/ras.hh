/**
 * @file
 * Return address stack (paper Table III: 16 entries).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace lvpsim
{
namespace branch
{

/** The stack is all checkpointed state; capacity rides in entries. */
struct ReturnAddressStackState
{
    std::vector<Addr> entries;
    std::size_t top = 0;
    std::size_t count = 0;
};

class ReturnAddressStack : private ReturnAddressStackState
{
  public:
    using State = ReturnAddressStackState;

    explicit ReturnAddressStack(unsigned depth = 16)
    {
        entries.assign(depth, 0);
    }

    void
    push(Addr return_addr)
    {
        top = (top + 1) % entries.size();
        entries[top] = return_addr;
        if (count < entries.size())
            ++count;
    }

    /** Pop a predicted return address; 0 if empty. */
    Addr
    pop()
    {
        if (count == 0)
            return 0;
        const Addr a = entries[top];
        top = (top + entries.size() - 1) % entries.size();
        --count;
        return a;
    }

    std::size_t depth() const { return count; }

    void saveState(State &s) const { s = *this; }
    void restoreState(const State &s) { State::operator=(s); }
};

} // namespace branch
} // namespace lvpsim


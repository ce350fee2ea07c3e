#include "pipeline/snapshot_io.hh"

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitutils.hh"

namespace lvpsim
{
namespace pipe
{
namespace
{

// Containers whose decoder must validate a layout before building it
// (rings, flat maps, folded and raw histories, the RNG) get an
// encode/decode overload pair; every State below is one io body.

template <typename T, typename Field>
void
ring(BinWriter &w, RingBuffer<T> &rb, Field field)
{
    w.u64(rb.capacity());
    w.u64(rb.size());
    for (std::size_t i = 0; i < rb.size(); ++i)
        field(w, rb[i]);
}

template <typename T, typename Field>
void
ring(BinReader &r, RingBuffer<T> &rb, Field field)
{
    constexpr std::uint64_t maxCapacity = std::uint64_t(1) << 20;
    const std::uint64_t cap = r.u64();
    const std::size_t n = r.count(1);
    if (!r.ok() || cap == 0 || cap > maxCapacity || n > cap ||
        !isPowerOf2(cap)) {
        r.fail();
        return;
    }
    rb.configure(static_cast<std::size_t>(cap));
    for (std::size_t i = 0; i < n; ++i) {
        T e{};
        field(r, e);
        if (!r.ok())
            return;
        rb.push_back(std::move(e));
    }
}

template <typename K, typename V, typename H, typename Field>
void
map(BinWriter &w, FlatMap<K, V, H> &m, Field field)
{
    const auto &slots = m.rawSlots();
    const auto &used = m.rawUsed();
    w.u64(slots.size());
    w.u64(m.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        w.u8(used[i]);
        if (used[i]) {
            w.u64(slots[i].first);
            field(w, const_cast<V &>(slots[i].second));
        }
    }
}

template <typename K, typename V, typename H, typename Field>
void
map(BinReader &r, FlatMap<K, V, H> &m, Field field)
{
    const std::size_t cap = r.count(1);
    const std::uint64_t live = r.u64();
    // The in-memory map keeps load factor <= 3/4 (a full table would
    // make probe loops unbounded), so a layout claiming more is
    // corrupt, not merely unusual.
    if (!r.ok() || (cap != 0 && !isPowerOf2(cap)) || live > cap ||
        (cap != 0 && live * 4 > cap * 3)) {
        r.fail();
        return;
    }
    std::vector<typename FlatMap<K, V, H>::value_type> slots(cap);
    std::vector<std::uint8_t> used(cap, 0);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < cap; ++i) {
        const std::uint8_t u = r.u8();
        if (u > 1) {
            r.fail();
            return;
        }
        used[i] = u;
        if (u != 0) {
            r.u64(slots[i].first);
            field(r, slots[i].second);
            ++seen;
        }
        if (!r.ok())
            return;
    }
    if (seen != live) {
        r.fail();
        return;
    }
    m.restoreRaw(std::move(slots), std::move(used),
                 static_cast<std::size_t>(live));
}

void
io(BinWriter &w, std::vector<branch::FoldedHistory> &v)
{
    w.u64(v.size());
    for (const auto &f : v) {
        w.u32(f.length());
        w.u32(f.foldedLength());
        w.u32(f.value());
    }
}

void
io(BinReader &r, std::vector<branch::FoldedHistory> &v)
{
    const std::size_t n = r.count(12);
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t orig = r.u32();
        const std::uint32_t compLen = r.u32();
        const std::uint32_t val = r.u32();
        // The FoldedHistory constructor asserts its width; validate
        // here first so corrupt input stays a store miss.
        if (!r.ok() || compLen < 1 || compLen > 31) {
            r.fail();
            return;
        }
        branch::FoldedHistory f(orig, compLen);
        f.restoreRaw(val);
        v.push_back(f);
    }
}

void
io(BinWriter &w, branch::HistoryRing &h)
{
    w.u64(h.rawBits().size());
    w.u64(h.rawHead());
    w.bytes(h.rawBits().data(), h.rawBits().size());
}

void
io(BinReader &r, branch::HistoryRing &h)
{
    const std::size_t n = r.count(1);
    const std::uint64_t head = r.u64();
    if (!r.ok() || n == 0 || head >= n) {
        r.fail();
        return;
    }
    std::vector<std::uint8_t> bits(n);
    if (!r.bytes(bits.data(), n))
        return;
    for (const std::uint8_t b : bits) {
        if (b > 1) {
            r.fail();
            return;
        }
    }
    h.restoreRaw(std::move(bits), static_cast<std::size_t>(head));
}

void
io(BinWriter &w, Xoshiro256 &g)
{
    for (const std::uint64_t word : g.rawState())
        w.u64(word);
}

void
io(BinReader &r, Xoshiro256 &g)
{
    std::array<std::uint64_t, 4> st;
    for (auto &word : st)
        word = r.u64();
    if (r.ok())
        g.restoreRaw(st);
}

template <class Ar>
void
io(Ar &ar, Prediction &p)
{
    ar.u8(p.kind);
    ar.check(p.kind <= Prediction::Kind::Address);
    ar.u64(p.value);
    ar.u64(p.addr);
    ar.i8(p.component);
    ar.check(p.component >= ComponentId::None &&
             p.component <= ComponentId::Other);
}

template <class Ar>
void
io(Ar &ar, mem::CacheState &s)
{
    ar.vec(s.lines, 18, [](auto &a, auto &l) {
        a.b(l.valid);
        a.b(l.dirty);
        a.u64(l.tag);
        a.u64(l.lastUse);
    });
    ar.u64(s.useClock);
    ar.u64(s.numHits);
    ar.u64(s.numMisses);
}

template <class Ar>
void
io(Ar &ar, mem::TlbState &s)
{
    ar.vec(s.sets, 17, [](auto &a, auto &way) {
        a.b(way.valid);
        a.u64(way.vpn);
        a.u64(way.lastUse);
    });
    ar.u64(s.useClock);
    ar.u64(s.numHits);
    ar.u64(s.numMisses);
}

template <class Ar>
void
io(Ar &ar, mem::StridePrefetcherState &s)
{
    ar.vec(s.table, 20, [](auto &a, auto &e) {
        a.b(e.valid);
        a.u16(e.tag);
        a.u64(e.lastAddr);
        a.i64(e.stride);
        a.u8(e.conf);
    });
    ar.u64(s.numIssued);
}

template <class Ar>
void
io(Ar &ar, mem::MemDepPredictorState &s)
{
    ar.vec(s.waitBits, 1, [](auto &a, auto &&bit) { a.b(bit); });
    ar.u64(s.accesses);
    ar.u64(s.numViolations);
}

template <class Ar>
void
io(Ar &ar, mem::MemoryHierarchy::State &s)
{
    io(ar, s.icache);
    io(ar, s.dcache);
    io(ar, s.l2cache);
    io(ar, s.l3cache);
    io(ar, s.dtlb);
    io(ar, s.pf);
}

template <class Ar>
void
io(Ar &ar, branch::TageState &s)
{
    ar.vec(s.base, 1, [](auto &a, auto &c) { a.i8(c); });
    ar.vec(s.tables, 8, [](auto &a, auto &table) {
        a.vec(table, 5, [](auto &a2, auto &e) {
            a2.u16(e.tag);
            a2.i8(e.ctr);
            a2.u8(e.useful);
            a2.b(e.valid);
        });
    });
    io(ar, s.foldIdx);
    io(ar, s.foldTag1);
    io(ar, s.foldTag2);
    io(ar, s.ring);
    ar.u64(s.pathHist);
    io(ar, s.rng);
    ar.i64(s.providerTable);
    ar.i64(s.altTable);
    ar.b(s.providerPred);
    ar.b(s.altPred);
    ar.b(s.lastPrediction);
    ar.u64(s.lastPc);
    ar.u64(s.numLookups);
    ar.u64(s.numMispredicts);
}

template <class Ar>
void
io(Ar &ar, branch::IttageState &s)
{
    ar.vec(s.base, 8, [](auto &a, auto &target) { a.u64(target); });
    ar.vec(s.tables, 8, [](auto &a, auto &table) {
        a.vec(table, 13, [](auto &a2, auto &e) {
            a2.b(e.valid);
            a2.u16(e.tag);
            a2.u64(e.target);
            a2.u8(e.conf);
            a2.u8(e.useful);
        });
    });
    io(ar, s.foldIdx);
    io(ar, s.foldTag);
    io(ar, s.ring);
    io(ar, s.rng);
    ar.i64(s.providerTable);
    ar.u64(s.lastPrediction);
    ar.u64(s.lastPc);
    ar.u64(s.numLookups);
    ar.u64(s.numMispredicts);
}

template <class Ar>
void
io(Ar &ar, branch::ReturnAddressStackState &s)
{
    ar.vec(s.entries, 8, [](auto &a, auto &addr) { a.u64(addr); });
    ar.u64(s.top);
    ar.u64(s.count);
    ar.check(s.entries.empty()
                 ? s.top == 0 && s.count == 0
                 : s.top < s.entries.size() &&
                       s.count <= s.entries.size());
}

template <class Ar>
void
io(Ar &ar, PipelineState::Inflight &e)
{
    ar.u32(e.traceIdx);
    ar.u64(e.seq);
    ar.u64(e.fetchCycle);
    ar.u64(e.minIssueCycle);
    ar.u64(e.doneCycle);
    ar.u64(e.sleepUntil);
    ar.b(e.inIQ);
    ar.b(e.issued);
    ar.b(e.done);
    for (auto &d : e.depSeq)
        ar.u64(d);
    ar.b(e.branchMispredicted);
    io(ar, e.pred);
    ar.u64(e.token);
    ar.b(e.vpDelivered);
    ar.u64(e.vpReadyCycle);
    ar.b(e.vpWrong);
    ar.b(e.paqPending);
    ar.b(e.speculativeLoad);
}

template <class Ar>
void
io(Ar &ar, PipelineState &s)
{
    ar.u64(s.now);
    ar.u64(s.fetchIdx);
    ar.u64(s.contextIdx);
    ar.u64(s.fetchResumeCycle);
    ar.b(s.fetchHalted);
    ar.b(s.fetchFrozen);
    ar.b(s.vpActive);
    ar.u64(s.nextSeq);
    ar.u64(s.nextToken);
    ar.u64(s.committed);
    ar.u64(s.issuedNotDone);

    const auto inflight = [](auto &a, auto &e) { io(a, e); };
    ring(ar, s.rob, inflight);
    ring(ar, s.fetchBuf, inflight);
    ring(ar, s.paq, [](auto &a, auto &e) {
        a.u64(e.seq);
        a.u64(e.addr);
    });
    const auto memQ = [](auto &a, auto &e) {
        a.u64(e.seq);
        a.u64(e.addr);
        a.u32(e.size);
    };
    ring(ar, s.ldq, memQ);
    ring(ar, s.stq, memQ);
    ar.u32(s.iqCount);
    ar.u64(s.specLoadsInFlight);
    for (auto &seq : s.lastWriter)
        ar.u64(seq);
    map(ar, s.inflightLoadPcs, [](auto &a, auto &v) { a.u32(v); });
    map(ar, s.refetchStash, [](auto &a, auto &v) {
        a.u64(v.token);
        io(a, v.pred);
    });
    io(ar, s.stats);
}

} // namespace

template <class Ar>
void
io(Ar &ar, Core::State &s)
{
    io(ar, s.memory);
    io(ar, s.memdep);
    io(ar, s.tage);
    io(ar, s.ittage);
    io(ar, s.ras);
    io(ar, s.pipeline);
}

template void io(BinWriter &, Core::State &);
template void io(BinReader &, Core::State &);

void
io(BinWriter &w, SimStats &s)
{
    std::uint32_t n = 0;
    forEachCounter(s, [&](std::string_view, std::uint64_t) { ++n; });
    w.u32(n);
    forEachCounter(s, [&](std::string_view name, std::uint64_t v) {
        w.u64(fnv1a64(name.data(), name.size()));
        w.u64(v);
    });
}

void
io(BinReader &r, SimStats &s)
{
    // Hash -> name, from the *current* counter set: a stream written
    // by a binary with different counters fails to match and reads
    // as corrupt (i.e. a store miss), which is exactly the contract.
    std::vector<std::pair<std::uint64_t, std::string>> names;
    forEachCounter(SimStats{},
                   [&](std::string_view name, std::uint64_t) {
                       names.emplace_back(
                           fnv1a64(name.data(), name.size()),
                           std::string(name));
                   });
    const std::uint32_t n = r.u32();
    if (!r.ok() || n != names.size()) {
        r.fail();
        return;
    }
    s = SimStats{};
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint64_t h = r.u64();
        const std::uint64_t v = r.u64();
        if (!r.ok())
            return;
        const std::string *name = nullptr;
        for (const auto &[hash, counter] : names) {
            if (hash == h) {
                name = &counter;
                break;
            }
        }
        if (name == nullptr || !setCounter(s, *name, v)) {
            r.fail();
            return;
        }
    }
}

} // namespace pipe
} // namespace lvpsim

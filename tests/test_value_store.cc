#include <gtest/gtest.h>

#include "core/composite.hh"
#include "core/lvp.hh"
#include "core/value_store.hh"

using namespace lvpsim;
using namespace lvpsim::vp;

TEST(InlineValueStore, RoundTrips)
{
    InlineValueStore s;
    const auto r = s.store(0xdeadbeef);
    ASSERT_TRUE(s.load(r).has_value());
    EXPECT_EQ(*s.load(r), 0xdeadbeefull);
    EXPECT_EQ(s.refBits(), 64u);
    EXPECT_EQ(s.poolBits(), 0u);
}

TEST(SharedValueStore, RoundTrips)
{
    SharedValueStore s(64);
    const auto r = s.store(42);
    ASSERT_TRUE(s.load(r).has_value());
    EXPECT_EQ(*s.load(r), 42ull);
}

TEST(SharedValueStore, DeduplicatesIdenticalValues)
{
    SharedValueStore s(64);
    const auto a = s.store(7);
    const auto b = s.store(7);
    EXPECT_EQ(a.idx, b.idx);
    EXPECT_EQ(a.gen, b.gen);
    EXPECT_EQ(s.liveValues(), 1u);
}

TEST(SharedValueStore, DistinctValuesGetDistinctSlots)
{
    SharedValueStore s(64);
    const auto a = s.store(1);
    const auto b = s.store(2);
    EXPECT_NE(a.idx, b.idx);
    EXPECT_EQ(s.liveValues(), 2u);
}

TEST(SharedValueStore, RecycledSlotInvalidatesOldRefs)
{
    SharedValueStore s(4);
    const auto old = s.store(100);
    // Overflow the 4-slot pool so slot(100) is recycled.
    for (Value v = 0; v < 16; ++v)
        s.store(1000 + v);
    EXPECT_FALSE(s.load(old).has_value());
}

TEST(SharedValueStore, LiveValuesBoundedByPool)
{
    SharedValueStore s(8);
    for (Value v = 0; v < 100; ++v)
        s.store(v);
    EXPECT_LE(s.liveValues(), 8u);
    EXPECT_GT(s.evictions(), 0u);
}

TEST(SharedValueStore, RefBitsAreCompact)
{
    SharedValueStore s(512);
    EXPECT_EQ(s.refBits(), 9u + 2u); // log2(512) + generation tag
    EXPECT_EQ(s.poolBits(), 512ull * 66);
}

TEST(SharedValueStore, ClockPrefersUnsharedSlots)
{
    SharedValueStore s(4);
    const auto hot = s.store(1);
    s.store(2);
    s.store(3);
    s.store(4);
    (void)s.store(1); // dedup hit: marks the slot shared/hot
    s.store(5);       // must recycle a one-shot slot, not the hot one
    EXPECT_TRUE(s.load(hot).has_value());
}

TEST(LvpShared, PredictsThroughSharedPool)
{
    SharedValueStore pool(256);
    Lvp l(256, 1, lvpConfThreshold, &pool);
    pipe::LoadOutcome o;
    o.pc = 0x100;
    o.effAddr = 0x1000;
    o.size = 8;
    o.value = 42;
    for (int i = 0; i < 400; ++i) {
        o.token = i + 1;
        l.train(o, {});
    }
    pipe::LoadProbe p;
    p.pc = 0x100;
    p.token = 9999;
    const auto cp = l.lookup(p);
    ASSERT_TRUE(cp.confident);
    EXPECT_EQ(cp.pred.value, 42u);
}

TEST(LvpShared, EntryBitsShrink)
{
    SharedValueStore pool(512);
    Lvp shared(1024, 1, lvpConfThreshold, &pool);
    Lvp inline_(1024, 1);
    // 14 tag + 3 conf + (9+2) pointer = 28 vs 81.
    EXPECT_EQ(shared.entryBits(), 14u + 3u + 11u);
    EXPECT_EQ(inline_.entryBits(), 81u);
    EXPECT_LT(shared.storageBits(), inline_.storageBits() / 2);
}

TEST(LvpShared, PoolRecyclingDropsPredictionSafely)
{
    SharedValueStore pool(4);
    Lvp l(256, 1, lvpConfThreshold, &pool);
    pipe::LoadOutcome o;
    o.pc = 0x100;
    o.effAddr = 0x1000;
    o.size = 8;
    o.value = 42;
    for (int i = 0; i < 400; ++i) {
        o.token = i + 1;
        l.train(o, {});
    }
    ASSERT_TRUE(l.lookup({0x100, 9998, 0}).confident);
    // Thrash the tiny pool from other values; 42's slot recycles.
    pipe::LoadOutcome other = o;
    other.pc = 0x200;
    for (int i = 0; i < 64; ++i) {
        other.value = 1000 + i;
        other.token = 10000 + i;
        l.train(other, {});
    }
    // The stale entry must fail safe: no prediction, no wrong value.
    const auto cp = l.lookup({0x100, 9999, 0});
    if (cp.confident) {
        EXPECT_EQ(cp.pred.value, 42u);
    }
}

TEST(CompositeShared, StorageDropsCoverageSurvives)
{
    auto plain_cfg = CompositeConfig::homogeneous(1024);
    auto shared_cfg = plain_cfg;
    shared_cfg.sharedValueArray = true; // pool auto-sized
    CompositePredictor plain(plain_cfg);
    CompositePredictor shared(shared_cfg);
    EXPECT_LT(shared.storageBits(), plain.storageBits());

    // Both learn a constant load; the shared one must still predict.
    for (int i = 0; i < 400; ++i) {
        pipe::LoadProbe p;
        p.pc = 0x100;
        p.token = i + 1;
        shared.predict(p);
        pipe::LoadOutcome o;
        o.pc = 0x100;
        o.token = i + 1;
        o.effAddr = 0x1000;
        o.size = 8;
        o.value = 77;
        shared.train(o);
    }
    pipe::LoadProbe p;
    p.pc = 0x100;
    p.token = 100000;
    const auto pred = shared.predict(p);
    shared.abandon(p.token);
    ASSERT_TRUE(pred.valid());
    EXPECT_EQ(pred.value, 77u);
}

#include <gtest/gtest.h>

#include "core/sap.hh"

using namespace lvpsim;
using namespace lvpsim::vp;
using pipe::LoadOutcome;
using pipe::LoadProbe;

namespace
{

std::uint64_t nextToken = 1;

LoadProbe
probeOf(Addr pc, unsigned inflight = 0)
{
    LoadProbe p;
    p.pc = pc;
    p.token = nextToken++;
    p.inflightSamePc = inflight;
    return p;
}

LoadOutcome
outcomeOf(Addr pc, Addr ea, unsigned size = 8)
{
    LoadOutcome o;
    o.pc = pc;
    o.token = nextToken++;
    o.effAddr = ea;
    o.size = size;
    o.value = ea * 3; // arbitrary
    return o;
}

/** Train a strided address stream. */
void
trainStride(Sap &s, Addr pc, Addr base, std::int64_t stride, int n)
{
    for (int i = 0; i < n; ++i)
        s.train(outcomeOf(pc, Addr(std::int64_t(base) + i * stride)), {});
}

} // anonymous namespace

TEST(Sap, NoPredictionWhenCold)
{
    Sap s(256);
    EXPECT_FALSE(s.lookup(probeOf(0x100)).confident);
}

TEST(Sap, LearnsPositiveStride)
{
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 64, 100);
    const auto cp = s.lookup(probeOf(0x100));
    ASSERT_TRUE(cp.confident);
    EXPECT_TRUE(cp.pred.isAddress());
    // Last trained address was 0x10000 + 99*64; next is +64.
    EXPECT_EQ(cp.pred.addr, 0x10000ull + 100 * 64);
}

TEST(Sap, LearnsZeroStride)
{
    // "possibly with stride = 0" - constant-address loads.
    Sap s(256, 1);
    trainStride(s, 0x100, 0x20000, 0, 100);
    const auto cp = s.lookup(probeOf(0x100));
    ASSERT_TRUE(cp.confident);
    EXPECT_EQ(cp.pred.addr, 0x20000ull);
}

TEST(Sap, LearnsNegativeStride)
{
    Sap s(256, 1);
    trainStride(s, 0x100, 0x30000, -8, 100);
    const auto cp = s.lookup(probeOf(0x100));
    ASSERT_TRUE(cp.confident);
    EXPECT_EQ(cp.pred.addr, Addr(0x30000 - 100 * 8) & mask(49));
}

TEST(Sap, InflightOccurrencesStepTheStride)
{
    // EVES-style in-flight compensation: with k occurrences already
    // in flight the prediction advances k+1 strides past the last
    // retired address.
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 64, 100);
    const Addr last = 0x10000 + 99 * 64;
    EXPECT_EQ(s.lookup(probeOf(0x100, 0)).pred.addr, last + 64);
    EXPECT_EQ(s.lookup(probeOf(0x100, 1)).pred.addr, last + 2 * 64);
    EXPECT_EQ(s.lookup(probeOf(0x100, 5)).pred.addr, last + 6 * 64);
}

TEST(Sap, BrokenStrideResetsConfidence)
{
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 64, 100);
    ASSERT_TRUE(s.lookup(probeOf(0x100)).confident);
    s.train(outcomeOf(0x100, 0x99999), {}); // stride break
    EXPECT_FALSE(s.lookup(probeOf(0x100)).confident);
}

TEST(Sap, NeedsRoughlyNineObservations)
{
    // Effective confidence 9 (Table IV): far fewer must not predict.
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 8, 3);
    EXPECT_FALSE(s.lookup(probeOf(0x100)).confident);
    // Well beyond 9 must predict (probabilistic but ~certain by 60).
    trainStride(s, 0x200, 0x20000, 8, 60);
    EXPECT_TRUE(s.lookup(probeOf(0x200)).confident);
}

TEST(Sap, OversizedStrideIsRejected)
{
    // The stride field is 10 signed bits: |stride| > 511 cannot be
    // represented and must never become confident.
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 4096, 200);
    EXPECT_FALSE(s.lookup(probeOf(0x100)).confident);
}

TEST(Sap, MaxRepresentableStrideWorks)
{
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 511, 100);
    EXPECT_TRUE(s.lookup(probeOf(0x100)).confident);
    trainStride(s, 0x200, 0x80000, -512, 100);
    EXPECT_TRUE(s.lookup(probeOf(0x200)).confident);
}

TEST(Sap, InvalidateEntryDropsIt)
{
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 64, 100);
    ASSERT_TRUE(s.lookup(probeOf(0x100)).confident);
    s.invalidateEntry(0x100);
    EXPECT_FALSE(s.lookup(probeOf(0x100)).confident);
}

TEST(Sap, StorageMatchesPaper77BitsPerEntry)
{
    Sap s(1024);
    EXPECT_EQ(s.storageBits(), 1024ull * 77);
    EXPECT_EQ(s.entryBits(), 77u);
}

TEST(Sap, SizeFieldTracksLoadWidth)
{
    Sap s(256, 1);
    for (int i = 0; i < 100; ++i)
        s.train(outcomeOf(0x100, 0x10000 + i * 4, 4), {});
    const auto cp = s.lookup(probeOf(0x100));
    ASSERT_TRUE(cp.confident);
}

TEST(Sap, WouldBeCorrectComparesAddresses)
{
    Sap s(256, 1);
    trainStride(s, 0x100, 0x10000, 64, 100);
    const auto cp = s.lookup(probeOf(0x100));
    EXPECT_TRUE(
        s.wouldBeCorrect(cp, outcomeOf(0x100, 0x10000 + 100 * 64)));
    EXPECT_FALSE(
        s.wouldBeCorrect(cp, outcomeOf(0x100, 0x10000 + 37)));
}

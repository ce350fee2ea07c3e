#include <gtest/gtest.h>

#include "core/lvp.hh"

using namespace lvpsim;
using namespace lvpsim::vp;
using pipe::LoadOutcome;
using pipe::LoadProbe;

namespace
{

std::uint64_t nextToken = 1;

LoadProbe
probeOf(Addr pc)
{
    LoadProbe p;
    p.pc = pc;
    p.token = nextToken++;
    return p;
}

LoadOutcome
outcomeOf(Addr pc, Value v, Addr ea = 0x1000, unsigned size = 8)
{
    LoadOutcome o;
    o.pc = pc;
    o.token = nextToken++;
    o.effAddr = ea;
    o.size = size;
    o.value = v;
    return o;
}

/** Train the same (pc, value) n times. */
void
trainN(Lvp &l, Addr pc, Value v, int n)
{
    for (int i = 0; i < n; ++i)
        l.train(outcomeOf(pc, v), {});
}

} // anonymous namespace

TEST(Lvp, NoPredictionWhenCold)
{
    Lvp l(256);
    EXPECT_FALSE(l.lookup(probeOf(0x100)).confident);
}

TEST(Lvp, NoPredictionBeforeEffectiveConfidence)
{
    // Effective confidence is 64 observations; after a handful the
    // counter cannot have reached threshold 7 (first two steps are
    // deterministic, later ones probabilistic but bounded).
    Lvp l(256);
    trainN(l, 0x100, 42, 7);
    EXPECT_FALSE(l.lookup(probeOf(0x100)).confident);
}

TEST(Lvp, PredictsAfterManyConsistentObservations)
{
    Lvp l(256, 1);
    trainN(l, 0x100, 42, 400); // >> 64 effective
    const auto cp = l.lookup(probeOf(0x100));
    ASSERT_TRUE(cp.confident);
    EXPECT_TRUE(cp.pred.isValue());
    EXPECT_EQ(cp.pred.value, 42u);
    EXPECT_EQ(cp.pred.component, pipe::ComponentId::LVP);
}

TEST(Lvp, ValueChangeResetsConfidence)
{
    Lvp l(256, 1);
    trainN(l, 0x100, 42, 400);
    ASSERT_TRUE(l.lookup(probeOf(0x100)).confident);
    l.train(outcomeOf(0x100, 43), {});
    EXPECT_FALSE(l.lookup(probeOf(0x100)).confident);
    // And the new value must be installed for retraining.
    trainN(l, 0x100, 43, 400);
    const auto cp = l.lookup(probeOf(0x100));
    ASSERT_TRUE(cp.confident);
    EXPECT_EQ(cp.pred.value, 43u);
}

TEST(Lvp, DistinctPcsTrackedIndependently)
{
    Lvp l(256, 1);
    trainN(l, 0x100, 1, 400);
    trainN(l, 0x104, 2, 400);
    EXPECT_EQ(l.lookup(probeOf(0x100)).pred.value, 1u);
    EXPECT_EQ(l.lookup(probeOf(0x104)).pred.value, 2u);
}

TEST(Lvp, ConflictEvictsViaTagMismatch)
{
    // Two PCs that collide in a 4-entry table: training one evicts
    // the other (direct mapped).
    Lvp l(4, 1);
    trainN(l, 0x100, 1, 400);
    ASSERT_TRUE(l.lookup(probeOf(0x100)).confident);
    trainN(l, 0x100 + 4 * 4, 2, 400); // same index, different tag
    EXPECT_FALSE(l.lookup(probeOf(0x100)).confident);
}

TEST(Lvp, StorageMatchesPaper81BitsPerEntry)
{
    Lvp l(1024);
    EXPECT_EQ(l.storageBits(), 1024ull * 81);
    EXPECT_EQ(l.entryBits(), 81u);
}

TEST(Lvp, ZeroEntriesIsInert)
{
    Lvp l(0);
    trainN(l, 0x100, 1, 100);
    EXPECT_FALSE(l.lookup(probeOf(0x100)).confident);
    EXPECT_EQ(l.storageBits(), 0u);
}

TEST(Lvp, DonorStopsPredictingAndFlushes)
{
    Lvp l(256, 1);
    trainN(l, 0x100, 1, 400);
    ASSERT_TRUE(l.lookup(probeOf(0x100)).confident);
    l.donateTable();
    EXPECT_TRUE(l.isDonor());
    EXPECT_FALSE(l.lookup(probeOf(0x100)).confident);
    l.unfuse();
    EXPECT_FALSE(l.isDonor());
    // Donor tables are flushed on unfuse too: must retrain.
    EXPECT_FALSE(l.lookup(probeOf(0x100)).confident);
}

TEST(Lvp, ReceiverGainsWaysAndKeepsData)
{
    Lvp l(4, 1);
    trainN(l, 0x100, 1, 400);
    l.receiveWays(1); // now 2-way
    ASSERT_TRUE(l.lookup(probeOf(0x100)).confident);
    // The conflicting PC now coexists instead of evicting.
    trainN(l, 0x100 + 4 * 4, 2, 400);
    EXPECT_TRUE(l.lookup(probeOf(0x100)).confident);
    EXPECT_TRUE(l.lookup(probeOf(0x100 + 4 * 4)).confident);
    l.unfuse();
    // Way 0 survives unfusing.
    EXPECT_EQ(l.numEntries(), 4u);
}

TEST(Lvp, WouldBeCorrectComparesValues)
{
    Lvp l(256, 1);
    trainN(l, 0x100, 42, 400);
    const auto cp = l.lookup(probeOf(0x100));
    EXPECT_TRUE(l.wouldBeCorrect(cp, outcomeOf(0x100, 42)));
    EXPECT_FALSE(l.wouldBeCorrect(cp, outcomeOf(0x100, 43)));
}

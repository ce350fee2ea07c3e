#include <gtest/gtest.h>

#include "core/eves.hh"

using namespace lvpsim;
using namespace lvpsim::vp;
using pipe::LoadOutcome;
using pipe::LoadProbe;
using pipe::Prediction;

namespace
{

std::uint64_t nextToken = 1;

Prediction
oneLoad(EvesPredictor &p, Addr pc, Value v, unsigned inflight = 0)
{
    LoadProbe probe;
    probe.pc = pc;
    probe.token = nextToken++;
    probe.inflightSamePc = inflight;
    const Prediction pred = p.predict(probe);
    LoadOutcome o;
    o.pc = pc;
    o.token = probe.token;
    o.effAddr = 0x1000;
    o.size = 8;
    o.value = v;
    p.train(o);
    return pred;
}

} // anonymous namespace

TEST(Eves, ColdPredictsNothing)
{
    EvesPredictor p;
    LoadProbe probe;
    probe.pc = 0x100;
    probe.token = nextToken++;
    EXPECT_FALSE(p.predict(probe).valid());
    p.abandon(probe.token);
}

TEST(Eves, LearnsConstantValue)
{
    EvesPredictor p;
    for (int i = 0; i < 400; ++i)
        oneLoad(p, 0x100, 42);
    const auto pred = oneLoad(p, 0x100, 42);
    ASSERT_TRUE(pred.valid());
    EXPECT_EQ(pred.value, 42u);
}

TEST(Eves, LearnsStrideValues)
{
    // The headline E-Stride capability: values that increase by a
    // fixed delta (the paper's composite predictor cannot do this).
    EvesPredictor p;
    Value v = 100;
    for (int i = 0; i < 500; ++i) {
        oneLoad(p, 0x200, v);
        v += 24;
    }
    const auto pred = oneLoad(p, 0x200, v);
    ASSERT_TRUE(pred.valid());
    EXPECT_EQ(pred.value, v); // next in sequence (then trained)
}

TEST(Eves, StrideAccountsForInflight)
{
    EvesPredictor p;
    Value v = 0;
    for (int i = 0; i < 500; ++i) {
        oneLoad(p, 0x300, v);
        v += 8;
    }
    // With k in-flight instances the prediction advances k+1 strides.
    LoadProbe probe;
    probe.pc = 0x300;
    probe.token = nextToken++;
    probe.inflightSamePc = 3;
    const auto pred = p.predict(probe);
    p.abandon(probe.token);
    ASSERT_TRUE(pred.valid());
    EXPECT_EQ(pred.value, v - 8 + 4 * 8);
}

TEST(Eves, ContextValuesViaVtage)
{
    EvesPredictor p;
    // Alternate values with alternating branch context.
    for (int i = 0; i < 600; ++i) {
        const bool ctx = i % 2 != 0;
        p.notifyBranch(0x900, ctx, 0x1000);
        oneLoad(p, 0x400, ctx ? 7 : 13);
    }
    int correct = 0, predicted = 0;
    for (int i = 0; i < 100; ++i) {
        const bool ctx = i % 2 != 0;
        p.notifyBranch(0x900, ctx, 0x1000);
        const auto pred = oneLoad(p, 0x400, ctx ? 7 : 13);
        if (pred.valid()) {
            ++predicted;
            correct += pred.value == (ctx ? 7u : 13u);
        }
    }
    EXPECT_GT(predicted, 50);
    EXPECT_GT(double(correct) / std::max(predicted, 1), 0.9);
}

TEST(Eves, RandomValuesStayUnpredicted)
{
    EvesPredictor p;
    Xoshiro256 rng(3);
    int predicted = 0;
    for (int i = 0; i < 500; ++i) {
        const auto pred = oneLoad(p, 0x500, rng.next());
        predicted += pred.valid() ? 1 : 0;
    }
    EXPECT_LT(predicted, 10);
}

TEST(Eves, PredictionsAreValueKind)
{
    EvesPredictor p;
    for (int i = 0; i < 400; ++i)
        oneLoad(p, 0x600, 5);
    const auto pred = oneLoad(p, 0x600, 5);
    ASSERT_TRUE(pred.valid());
    EXPECT_TRUE(pred.isValue());
    EXPECT_FALSE(pred.isAddress());
}

TEST(Eves, StorageTiersOrdered)
{
    EvesPredictor small(EvesConfig::small8k());
    EvesPredictor large(EvesConfig::large32k());
    EvesPredictor inf(EvesConfig::infinite());
    EXPECT_LT(small.storageBits(), large.storageBits());
    EXPECT_LT(large.storageBits(), inf.storageBits());
    // The tiers should be in the ballpark of their names.
    EXPECT_NEAR(double(small.storageBits()) / 8192.0, 8.0, 4.0);
    EXPECT_NEAR(double(large.storageBits()) / 8192.0, 32.0, 12.0);
}

TEST(Eves, AbandonKeepsStateConsistent)
{
    EvesPredictor p;
    for (int i = 0; i < 100; ++i) {
        LoadProbe probe;
        probe.pc = 0x700;
        probe.token = nextToken++;
        p.predict(probe);
        p.abandon(probe.token);
    }
    SUCCEED();
}

TEST(Eves, FarApartValuesKeepStrideWellDefined)
{
    // Two values more than 2^63 apart: their difference overflows a
    // signed subtraction (UB that UBSan aborts on). The E-Stride delta
    // wraps in uint64 instead, is out of 16-bit range, and resets the
    // entry, which then learns a stride from there as usual.
    EvesPredictor p;
    Value v = 7218738570589545383ull;
    oneLoad(p, 0x800, 10590380919521690900ull);
    oneLoad(p, 0x800, v);
    for (int i = 0; i < 500; ++i) {
        v += 24;
        oneLoad(p, 0x800, v);
    }
    v += 24;
    const auto pred = oneLoad(p, 0x800, v);
    ASSERT_TRUE(pred.valid());
    EXPECT_EQ(pred.value, v);
}

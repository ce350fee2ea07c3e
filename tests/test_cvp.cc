#include <gtest/gtest.h>

#include "core/cvp.hh"

using namespace lvpsim;
using namespace lvpsim::vp;
using pipe::LoadOutcome;
using pipe::LoadProbe;

namespace
{

std::uint64_t nextToken = 1;

/**
 * Drives CVP the way the composite does: probe (capturing the
 * fetch-time table keys), then train with what the probe returned.
 */
class CvpDriver
{
  public:
    explicit CvpDriver(std::size_t entries) : cvp(entries, 1) {}

    /** Simulate one load in a given branch context. */
    ComponentPrediction
    loadInContext(Addr pc, Value v, const std::vector<bool> &context)
    {
        // Establish the context: a fixed branch PC sequence whose
        // outcomes are the context bits.
        for (std::size_t i = 0; i < context.size(); ++i)
            cvp.notifyBranch(0x9000 + Addr(i) * 4, context[i],
                             0x9100);
        LoadProbe p;
        p.pc = pc;
        p.token = nextToken++;
        const auto cp = cvp.lookup(p);
        LoadOutcome o;
        o.pc = pc;
        o.token = p.token;
        o.effAddr = 0x1000;
        o.size = 8;
        o.value = v;
        cvp.train(o, cp);
        return cp;
    }

    Cvp cvp;
};

} // anonymous namespace

TEST(Cvp, NoPredictionWhenCold)
{
    Cvp c(768, 1);
    LoadProbe p;
    p.pc = 0x100;
    p.token = nextToken++;
    EXPECT_FALSE(c.lookup(p).confident);
}

TEST(Cvp, LearnsContextDependentValues)
{
    // The same static load produces value 7 after context A and 13
    // after context B: LVP could never predict this, CVP must.
    CvpDriver d(768);
    const std::vector<bool> ctx_a{true, false, true, true, false};
    const std::vector<bool> ctx_b{false, true, false, false, true};
    for (int i = 0; i < 200; ++i) {
        d.loadInContext(0x100, 7, ctx_a);
        d.loadInContext(0x100, 13, ctx_b);
    }
    const auto pa = d.loadInContext(0x100, 7, ctx_a);
    ASSERT_TRUE(pa.confident);
    EXPECT_EQ(pa.pred.value, 7u);
    const auto pb = d.loadInContext(0x100, 13, ctx_b);
    ASSERT_TRUE(pb.confident);
    EXPECT_EQ(pb.pred.value, 13u);
}

TEST(Cvp, StableValueBecomesConfidentQuickly)
{
    // Effective confidence ~16 observations (Table IV).
    CvpDriver d(768);
    const std::vector<bool> ctx{true, true, false};
    ComponentPrediction cp;
    int when = -1;
    for (int i = 0; i < 100; ++i) {
        cp = d.loadInContext(0x200, 99, ctx);
        if (cp.confident && when < 0)
            when = i;
    }
    ASSERT_GE(when, 0);
    EXPECT_GE(when, 4);   // cannot be confident before threshold 4
    EXPECT_LE(when, 80);  // and must get there reasonably soon
    EXPECT_EQ(cp.pred.value, 99u);
}

TEST(Cvp, ChangingValuesStayUnpredicted)
{
    CvpDriver d(768);
    const std::vector<bool> ctx{true, false};
    for (int i = 0; i < 100; ++i) {
        const auto cp = d.loadInContext(0x300, Value(i), ctx);
        EXPECT_FALSE(cp.confident) << "iteration " << i;
    }
}

TEST(Cvp, PredictionKindIsValue)
{
    CvpDriver d(768);
    const std::vector<bool> ctx{true};
    for (int i = 0; i < 200; ++i)
        d.loadInContext(0x400, 5, ctx);
    const auto cp = d.loadInContext(0x400, 5, ctx);
    ASSERT_TRUE(cp.confident);
    EXPECT_TRUE(cp.pred.isValue());
    EXPECT_EQ(cp.pred.component, pipe::ComponentId::CVP);
}

TEST(Cvp, TrainWithoutFetchKeysIsNoOp)
{
    // An outcome whose probe is unknown carries no fetch-time keys:
    // CVP cannot tell which context to train, so it trains nothing.
    Cvp c(768, 1);
    LoadProbe p;
    p.pc = 0x500;
    p.token = nextToken++;
    LoadOutcome o;
    o.pc = 0x500;
    o.token = p.token;
    o.value = 1;
    for (int i = 0; i < 200; ++i)
        c.train(o, ComponentPrediction{});
    const auto cp = c.lookup(p);
    EXPECT_TRUE(cp.keyed);
    EXPECT_FALSE(cp.confident);
}

TEST(Cvp, EntriesSplitAcrossThreeTables)
{
    // Tables are {1/2, 1/4, 1/4}, each rounded down to a power of
    // two (folded-history indices need power-of-two tables).
    Cvp c(1024, 1);
    EXPECT_EQ(c.numEntries(), 1024u); // 512 + 256 + 256
    Cvp odd(1000, 1);
    EXPECT_EQ(odd.numEntries(), 512u); // 256 + 128 + 128
}

TEST(Cvp, StorageMatchesPaper81BitsPerEntry)
{
    Cvp c(1024, 1);
    EXPECT_EQ(c.storageBits(), 1024ull * 81);
}

TEST(Cvp, DonorLifecycle)
{
    CvpDriver d(768);
    const std::vector<bool> ctx{true};
    for (int i = 0; i < 200; ++i)
        d.loadInContext(0x600, 5, ctx);
    ASSERT_TRUE(d.loadInContext(0x600, 5, ctx).confident);
    d.cvp.donateTable();
    EXPECT_FALSE(d.loadInContext(0x600, 5, ctx).confident);
    d.cvp.unfuse();
    EXPECT_FALSE(d.loadInContext(0x600, 5, ctx).confident);
}

TEST(Cvp, ZeroEntriesIsInert)
{
    Cvp c(0, 1);
    LoadProbe p;
    p.pc = 0x700;
    p.token = nextToken++;
    EXPECT_FALSE(c.lookup(p).confident);
    EXPECT_EQ(c.storageBits(), 0u);
}

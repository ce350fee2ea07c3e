#include <gtest/gtest.h>

#include "core/cap.hh"

using namespace lvpsim;
using namespace lvpsim::vp;
using pipe::LoadOutcome;
using pipe::LoadProbe;

namespace
{

std::uint64_t nextToken = 1;

class CapDriver
{
  public:
    explicit CapDriver(std::size_t entries) : cap(entries, 1) {}

    /**
     * One load at @p pc, preceded by a branch path that forms the
     * context, loading from @p ea.
     */
    ComponentPrediction
    loadOnPath(Addr pc, Addr ea, const std::vector<Addr> &path,
               unsigned size = 8)
    {
        for (Addr bp : path)
            cap.notifyBranch(bp, true, bp + 0x100);
        LoadProbe p;
        p.pc = pc;
        p.token = nextToken++;
        const auto cp = cap.lookup(p);
        LoadOutcome o;
        o.pc = pc;
        o.token = p.token;
        o.effAddr = ea;
        o.size = size;
        o.value = ea ^ 0xabcd;
        cap.train(o, cp);
        return cp;
    }

    Cap cap;
};

} // anonymous namespace

TEST(Cap, NoPredictionWhenCold)
{
    Cap c(256, 1);
    LoadProbe p;
    p.pc = 0x100;
    p.token = nextToken++;
    EXPECT_FALSE(c.lookup(p).confident);
}

TEST(Cap, LearnsAfterFourObservations)
{
    // CAP has the lowest threshold: 4 consecutive observations of a
    // given path/PC (Table IV). The {1, 1, 0.5} FPC vector needs at
    // least 3 trains, typically ~4.
    CapDriver d(256);
    const std::vector<Addr> path{0x700, 0x704, 0x708};
    int when = -1;
    for (int i = 0; i < 40; ++i) {
        const auto cp = d.loadOnPath(0x100, 0x5000, path);
        if (cp.confident && when < 0)
            when = i;
    }
    ASSERT_GE(when, 3);
    EXPECT_LE(when, 12);
}

TEST(Cap, PredictsTheLearnedAddress)
{
    CapDriver d(256);
    const std::vector<Addr> path{0x700, 0x704};
    for (int i = 0; i < 30; ++i)
        d.loadOnPath(0x100, 0x5000, path);
    const auto cp = d.loadOnPath(0x100, 0x5000, path);
    ASSERT_TRUE(cp.confident);
    EXPECT_TRUE(cp.pred.isAddress());
    EXPECT_EQ(cp.pred.addr, 0x5000u);
    EXPECT_EQ(cp.pred.component, pipe::ComponentId::CAP);
}

TEST(Cap, DistinguishesControlPaths)
{
    // Same static load, two different load paths, two different
    // addresses: both must be predicted correctly by context.
    CapDriver d(256);
    const std::vector<Addr> path_a{0x700, 0x704, 0x708, 0x70c};
    const std::vector<Addr> path_b{0x800, 0x804, 0x808, 0x80c};
    for (int i = 0; i < 40; ++i) {
        d.loadOnPath(0x100, 0x5000, path_a);
        d.loadOnPath(0x100, 0x6000, path_b);
    }
    EXPECT_EQ(d.loadOnPath(0x100, 0x5000, path_a).pred.addr,
              0x5000u);
    EXPECT_EQ(d.loadOnPath(0x100, 0x6000, path_b).pred.addr,
              0x6000u);
}

TEST(Cap, AddressChangeResetsConfidence)
{
    CapDriver d(256);
    const std::vector<Addr> path{0x700};
    for (int i = 0; i < 30; ++i)
        d.loadOnPath(0x100, 0x5000, path);
    ASSERT_TRUE(d.loadOnPath(0x100, 0x5000, path).confident);
    d.loadOnPath(0x100, 0x9000, path); // trains the new address
    EXPECT_FALSE(d.loadOnPath(0x100, 0x9000, path).confident);
}

TEST(Cap, SizeChangeResetsConfidence)
{
    CapDriver d(256);
    const std::vector<Addr> path{0x700};
    for (int i = 0; i < 30; ++i)
        d.loadOnPath(0x100, 0x5000, path, 8);
    ASSERT_TRUE(d.loadOnPath(0x100, 0x5000, path, 8).confident);
    d.loadOnPath(0x100, 0x5000, path, 4);
    EXPECT_FALSE(d.loadOnPath(0x100, 0x5000, path, 4).confident);
}

TEST(Cap, StorageMatchesPaper67BitsPerEntry)
{
    Cap c(1024, 1);
    EXPECT_EQ(c.storageBits(), 1024ull * 67);
    EXPECT_EQ(c.entryBits(), 67u);
}

TEST(Cap, TrainWithoutFetchKeysIsNoOp)
{
    // No fetch-time keys (the probe is unknown): CAP cannot tell
    // which path to train, so it trains nothing.
    Cap c(256, 1);
    LoadProbe p;
    p.pc = 0x100;
    p.token = nextToken++;
    LoadOutcome o;
    o.pc = 0x100;
    o.token = p.token;
    o.effAddr = 0x5000;
    o.size = 8;
    for (int i = 0; i < 40; ++i)
        c.train(o, ComponentPrediction{});
    const auto cp = c.lookup(p);
    EXPECT_TRUE(cp.keyed);
    EXPECT_FALSE(cp.confident);
}

TEST(Cap, DonorLifecycle)
{
    CapDriver d(256);
    const std::vector<Addr> path{0x700};
    for (int i = 0; i < 30; ++i)
        d.loadOnPath(0x100, 0x5000, path);
    ASSERT_TRUE(d.loadOnPath(0x100, 0x5000, path).confident);
    d.cap.donateTable();
    EXPECT_FALSE(d.loadOnPath(0x100, 0x5000, path).confident);
    EXPECT_TRUE(d.cap.isDonor());
    d.cap.unfuse();
    EXPECT_FALSE(d.cap.isDonor());
}

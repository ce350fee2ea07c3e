/**
 * @file
 * loadTrace contract tests: the synthetic path is bit-identical to
 * generateWorkload(), the `.lvpt` save/load pair round-trips, budgets
 * truncate, identity strings (the sim caches' key component) are
 * pinned, errors come back as messages, and trace specs
 * parse/print consistently.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "trace/trace_io.hh"
#include "trace/trace_spec.hh"
#include "trace/workloads.hh"

using namespace lvpsim;
using trace::MicroOp;

namespace
{

bool
sameOps(const std::vector<MicroOp> &a, const std::vector<MicroOp> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (trace::debugString(a[i]) != trace::debugString(b[i]))
            return false;
    }
    return true;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

/** loadTrace that must succeed. */
trace::LoadedTrace
load(const std::string &spec, std::size_t max_ops,
     std::uint64_t seed = 1)
{
    std::string err;
    auto t = trace::loadTrace(spec, max_ops, seed, &err);
    EXPECT_TRUE(t.has_value()) << spec << ": " << err;
    return t ? std::move(*t) : trace::LoadedTrace{};
}

/** The loader's message for a spec that must fail. */
std::string
loadError(const std::string &spec)
{
    std::string err;
    EXPECT_FALSE(trace::loadTrace(spec, 100, 1, &err).has_value())
        << spec;
    return err;
}

} // anonymous namespace

TEST(TraceSource, SyntheticMatchesGenerateWorkload)
{
    const auto t = load("memset_loop", 2000);
    const auto direct = trace::generateWorkload("memset_loop", 2000, 1);
    EXPECT_TRUE(sameOps(t.ops, direct));
    EXPECT_EQ(t.format, "synthetic");
    EXPECT_EQ(t.identity, "synth:memset_loop#2000#1");
}

TEST(TraceSource, MaterializeHonorsBudget)
{
    // A file trace is truncated to the budget; its identity still
    // counts the whole file and records the cap.
    const std::string path = tempPath("budget.lvpt");
    const auto all = trace::generateWorkload("stream_sum", 1000, 1);
    ASSERT_TRUE(trace::saveTraceFile(path, all));
    const auto head = load("lvpt:" + path, 100);
    ASSERT_EQ(head.ops.size(), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_EQ(trace::debugString(head.ops[i]),
                  trace::debugString(all[i]));
    EXPECT_EQ(head.identity, "lvpt:" + path + "#1000#" +
                                 std::to_string(trace::hashTrace(all)) +
                                 "#cap100");
    std::remove(path.c_str());
}

TEST(TraceSource, RecordReplayRoundTrip)
{
    const std::string path = tempPath("roundtrip.lvpt");
    const auto ops = trace::generateWorkload("hash_probe", 800, 3);
    ASSERT_TRUE(trace::saveTraceFile(path, ops));

    const auto replay = load("lvpt:" + path, 0);
    EXPECT_EQ(replay.format, "lvpt");
    EXPECT_TRUE(sameOps(replay.ops, ops));
    EXPECT_EQ(trace::hashTrace(replay.ops), trace::hashTrace(ops));
    // Identity embeds the content hash: a distinct trace written to
    // the same path must get a distinct identity.
    ASSERT_TRUE(trace::saveTraceFile(
        path, trace::generateWorkload("stream_sum", 800, 3)));
    EXPECT_NE(load("lvpt:" + path, 0).identity, replay.identity);
    std::remove(path.c_str());
}

TEST(TraceSource, OpenMissingFileFailsCleanly)
{
    const std::string path = tempPath("does_not_exist.lvpt");
    EXPECT_EQ(loadError("lvpt:" + path)
                  .rfind("cannot load trace '" + path + "': ", 0),
              0u);
    EXPECT_EQ(loadError("cvp:" + path)
                  .rfind("cannot load trace '" + path + "': ", 0),
              0u);
}

TEST(TraceSpec, LoadErrorsNameTheSpec)
{
    EXPECT_EQ(loadError("no_such_thing"),
              "unknown workload 'no_such_thing'");
    EXPECT_EQ(loadError("synth:no_such_thing"),
              "unknown workload 'no_such_thing'");
    EXPECT_EQ(loadError("synth:[iters=0]bogus()")
                  .rfind("bad kernel spec '[iters=0]bogus()': ", 0),
              0u);
}

TEST(TraceSpec, IdentityStringsArePinned)
{
    // The identity feeds every ckpt:/base:/plan: store key, and the
    // content hash pins the trace bytes: a change here invalidates
    // every persistent store.
    const auto kernel = load("pointer_chase", 500, 7);
    EXPECT_EQ(kernel.identity, "synth:pointer_chase#500#7");
    EXPECT_EQ(trace::hashTrace(kernel.ops), 16508695597750550471ull);

    // A non-canonical spelling keys on the canonical spec text.
    const auto spec =
        load("synth:[iters=100] stride(wset=400) , const(v=66)", 500);
    EXPECT_EQ(spec.identity,
              "synth:[iters=100]stride(wset=400),const(v=0x42)#500#1");
    EXPECT_EQ(trace::hashTrace(spec.ops), 1444844408742028254ull);

    // A file identity counts and hashes the whole file, then the cap.
    const std::string path = tempPath("pinned.lvpt");
    ASSERT_TRUE(trace::saveTraceFile(path, kernel.ops));
    const auto lvpt = load("lvpt:" + path, 400);
    EXPECT_EQ(lvpt.identity,
              "lvpt:" + path + "#500#16508695597750550471#cap400");
    EXPECT_EQ(trace::hashTrace(lvpt.ops), 8559333151647543215ull);
    std::remove(path.c_str());

    // A CVP parse stops at the cap, so it counts and hashes only that.
    const std::string cvpPath =
        LVPSIM_TEST_DATA_DIR "/mini_pointer_chase.cvp";
    const auto cvp = load("cvp:" + cvpPath, 10);
    EXPECT_EQ(cvp.format, "cvp");
    EXPECT_EQ(cvp.identity,
              "cvp:" + cvpPath + "#10#15705756322278483944#cap10");
    EXPECT_EQ(trace::hashTrace(cvp.ops), 15705756322278483944ull);
}

TEST(TraceSpec, ParseAndPrint)
{
    const auto bare = trace::parseTraceSpec("memset_loop");
    EXPECT_EQ(bare.kind, trace::TraceKind::Synthetic);
    EXPECT_EQ(bare.name, "memset_loop");
    EXPECT_EQ(trace::traceSpecString(bare), "memset_loop");

    const auto synth = trace::parseTraceSpec("synth:memset_loop");
    EXPECT_EQ(synth.kind, trace::TraceKind::Synthetic);
    EXPECT_EQ(synth.name, "memset_loop");

    const auto lvpt = trace::parseTraceSpec("lvpt:/tmp/a.lvpt");
    EXPECT_EQ(lvpt.kind, trace::TraceKind::Lvpt);
    EXPECT_EQ(lvpt.name, "/tmp/a.lvpt");
    EXPECT_EQ(trace::traceSpecString(lvpt), "lvpt:/tmp/a.lvpt");

    const auto cvp = trace::parseTraceSpec("cvp:/tmp/b.cvp.gz");
    EXPECT_EQ(cvp.kind, trace::TraceKind::Cvp);
    EXPECT_EQ(cvp.name, "/tmp/b.cvp.gz");
    EXPECT_EQ(trace::traceSpecString(cvp), "cvp:/tmp/b.cvp.gz");
}

TEST(TraceSpec, OpenSyntheticViaFactory)
{
    const auto t = load("memset_loop", 300);
    EXPECT_EQ(t.format, "synthetic");
    EXPECT_EQ(t.ops.size(), 300u);
}

TEST(TraceSource, DebugStringIsStable)
{
    MicroOp op;
    op.pc = 0x4000;
    op.cls = trace::OpClass::Load;
    op.dst = 3;
    op.src = {1, invalidReg, invalidReg};
    op.effAddr = 0x10000;
    op.memSize = 8;
    op.memValue = 0x2a;
    EXPECT_EQ(trace::debugString(op),
              "pc=0x4000 cls=4 dst=3 src=1,-,- ea=0x10000 sz=8 "
              "val=0x2a excl=0 taken=0 tgt=0x0");
}

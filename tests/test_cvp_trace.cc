/**
 * @file
 * CVP-1 trace format tests: the checked-in fixture parses to its
 * golden output and drives the differential harness cleanly, the
 * writer/reader pair round-trips exactly as cvpProjection specifies,
 * malformed inputs fail with clean errors (no crash/UB), and the
 * gzip path round-trips when zlib is available.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/composite.hh"
#include "pipeline/core_config.hh"
#include "qa/differential.hh"
#include "trace/cvp_trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_spec.hh"

using namespace lvpsim;
using trace::CvpInstClass;
using trace::MicroOp;
using trace::OpClass;

namespace
{

const char *const fixturePath =
    LVPSIM_TEST_DATA_DIR "/mini_pointer_chase.cvp";
const char *const goldenPath =
    LVPSIM_TEST_DATA_DIR "/mini_pointer_chase.golden";

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

/** A handcrafted trace covering every OpClass and format corner. */
std::vector<MicroOp>
cornerTrace()
{
    std::vector<MicroOp> ops;
    auto add = [&](OpClass cls) -> MicroOp & {
        MicroOp op;
        op.pc = 0x1000 + 4 * ops.size();
        op.cls = cls;
        ops.push_back(op);
        return ops.back();
    };
    add(OpClass::IntAlu).dst = 5;
    {
        MicroOp &op = add(OpClass::Load);
        op.dst = 3;
        op.src = {1, invalidReg, invalidReg};
        op.effAddr = 0xdead0000;
        op.memSize = 8;
        op.memValue = 0x123456789abcdef0ull;
    }
    {
        // An exclusive store: exclusiveMem is not representable and
        // the stored value is not carried by the format.
        MicroOp &op = add(OpClass::Store);
        op.src = {2, 7, invalidReg};
        op.effAddr = 0xbeef;
        op.memSize = 4;
        op.memValue = 42;
        op.exclusiveMem = true;
    }
    {
        MicroOp &op = add(OpClass::Branch); // taken, explicit target
        op.taken = true;
        op.target = 0x2000;
        op.src = {9, invalidReg, invalidReg};
    }
    {
        MicroOp &op = add(OpClass::Branch); // not taken: target is
        op.taken = false;                   // rewritten to pc + 4
        op.target = 0x3333;
    }
    {
        MicroOp &op = add(OpClass::Call); // folds to Branch(taken)
        op.taken = true;
        op.target = 0x4000;
    }
    {
        MicroOp &op = add(OpClass::Ret); // folds to IndirBr
        op.taken = true;
        op.target = 0x1010;
    }
    {
        MicroOp &op = add(OpClass::IndirBr);
        op.taken = true;
        op.target = 0x5000;
        op.src = {4, invalidReg, invalidReg};
    }
    add(OpClass::IntMul).dst = 8;
    add(OpClass::IntDiv).dst = 9;   // folds to IntMul
    {
        MicroOp &op = add(OpClass::FpAlu); // SIMD-bank destination
        op.dst = 40;
        op.src = {33, 34, invalidReg};
    }
    add(OpClass::Barrier); // folds to IntAlu
    add(OpClass::Nop);
    {
        MicroOp &op = add(OpClass::Load); // load with no dst reg:
        op.effAddr = 0x7000;              // value cannot be carried
        op.memSize = 2;
        op.memValue = 99;
    }
    return ops;
}

} // anonymous namespace

TEST(CvpTrace, FixtureParsesToGolden)
{
    std::vector<MicroOp> ops;
    std::string err;
    ASSERT_TRUE(trace::loadCvpTraceFile(fixturePath, ops, &err))
        << err;
    ASSERT_EQ(ops.size(), 200u);

    std::ifstream golden(goldenPath);
    ASSERT_TRUE(golden.is_open()) << goldenPath;
    std::string line;
    std::size_t i = 0;
    while (std::getline(golden, line)) {
        ASSERT_LT(i, ops.size());
        EXPECT_EQ(trace::debugString(ops[i]), line)
            << "fixture record " << i;
        ++i;
    }
    EXPECT_EQ(i, ops.size());
}

TEST(CvpTrace, FixtureRunsDifferentialCleanly)
{
    std::vector<MicroOp> ops;
    std::string err;
    ASSERT_TRUE(trace::loadCvpTraceFile(fixturePath, ops, &err))
        << err;
    const auto res = qa::runDifferential(
        pipe::CoreConfig{}, vp::CompositeConfig::homogeneous(256),
        ops);
    EXPECT_TRUE(res.ok()) << res.failureReport();
}

TEST(CvpTrace, FixtureThroughTraceSource)
{
    const std::string spec = std::string("cvp:") + fixturePath;
    std::string err;
    auto t = trace::loadTrace(spec, 0, 1, &err);
    ASSERT_TRUE(t) << err;
    EXPECT_EQ(t->format, "cvp");
    EXPECT_EQ(t->ops.size(), 200u);
    EXPECT_EQ(t->identity.rfind("cvp:", 0), 0u);
    // The budget bounds the parse.
    auto head = trace::loadTrace(spec, 10, 1, &err);
    ASSERT_TRUE(head) << err;
    EXPECT_EQ(head->ops.size(), 10u);
}

TEST(CvpTrace, RoundTripEqualsProjection)
{
    const auto ops = cornerTrace();
    std::ostringstream os;
    ASSERT_TRUE(trace::writeCvpTrace(os, ops));

    std::istringstream is(os.str());
    std::vector<MicroOp> back;
    std::string err;
    ASSERT_TRUE(trace::readCvpTrace(is, back, &err)) << err;
    ASSERT_EQ(back.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(trace::debugString(back[i]),
                  trace::debugString(trace::cvpProjection(ops[i])))
            << "record " << i;

    // The projection is a fixed point: once an op has been through
    // one round trip, further round trips are byte-identical. (The
    // FIRST write can differ — e.g. a Call exports as UncondDirect,
    // imports as a taken Branch, and re-exports as CondBranch.)
    std::ostringstream second;
    ASSERT_TRUE(trace::writeCvpTrace(second, back));
    std::istringstream is2(second.str());
    std::vector<MicroOp> again;
    ASSERT_TRUE(trace::readCvpTrace(is2, again, &err)) << err;
    ASSERT_EQ(again.size(), back.size());
    for (std::size_t i = 0; i < back.size(); ++i)
        EXPECT_EQ(trace::debugString(again[i]),
                  trace::debugString(back[i]))
            << "record " << i;
    std::ostringstream third;
    ASSERT_TRUE(trace::writeCvpTrace(third, again));
    EXPECT_EQ(second.str(), third.str());
}

TEST(CvpTrace, EmptyStreamParses)
{
    std::istringstream is("");
    std::vector<MicroOp> ops{MicroOp{}};
    std::string err;
    EXPECT_TRUE(trace::readCvpTrace(is, ops, &err)) << err;
    EXPECT_TRUE(ops.empty());
}

TEST(CvpTrace, TruncatedRecordsFailCleanly)
{
    std::ostringstream os;
    ASSERT_TRUE(trace::writeCvpTrace(os, cornerTrace()));
    const std::string bytes = os.str();

    // Every proper prefix that cuts a record mid-way must fail with
    // an error (prefixes at record boundaries succeed instead).
    std::size_t failures = 0;
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        std::istringstream is(bytes.substr(0, cut));
        std::vector<MicroOp> ops;
        std::string err;
        if (!trace::readCvpTrace(is, ops, &err)) {
            EXPECT_FALSE(err.empty());
            EXPECT_NE(err.find("truncated"), std::string::npos)
                << err;
            ++failures;
        }
    }
    EXPECT_GT(failures, 0u);
}

TEST(CvpTrace, BadInstructionClassFailsCleanly)
{
    std::string bytes(8, '\0'); // pc
    bytes.push_back(char(9));   // first invalid class id
    std::istringstream is(bytes);
    std::vector<MicroOp> ops;
    std::string err;
    EXPECT_FALSE(trace::readCvpTrace(is, ops, &err));
    EXPECT_NE(err.find("bad instruction class"), std::string::npos)
        << err;
}

TEST(CvpTrace, ImplausibleRegisterCountFailsCleanly)
{
    std::string bytes(8, '\0');  // pc
    bytes.push_back(char(0));    // Alu
    bytes.push_back(char(200));  // input-reg count way past sane
    std::istringstream is(bytes);
    std::vector<MicroOp> ops;
    std::string err;
    EXPECT_FALSE(trace::readCvpTrace(is, ops, &err));
    EXPECT_NE(err.find("implausible input register count"),
              std::string::npos)
        << err;
}

TEST(CvpTrace, DroppedRegistersOnImport)
{
    // Flags (64) and zero (65) registers, and inputs past the third,
    // are dropped on import.
    std::string bytes(8, '\0'); // pc = 0
    bytes.push_back(char(0));   // Alu
    bytes.push_back(char(5));   // 5 input regs
    for (unsigned char r : {1, 64, 65, 2, 3})
        bytes.push_back(char(r));
    bytes.push_back(char(1));  // 1 output reg
    bytes.push_back(char(64)); // the flags register: dropped
    bytes.append(8, '\0');     // its value
    std::istringstream is(bytes);
    std::vector<MicroOp> ops;
    std::string err;
    ASSERT_TRUE(trace::readCvpTrace(is, ops, &err)) << err;
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].src[0], 1);
    EXPECT_EQ(ops[0].src[1], 2);
    EXPECT_EQ(ops[0].src[2], 3);
    EXPECT_EQ(ops[0].dst, invalidReg);
}

TEST(CvpTrace, ClassMapping)
{
    EXPECT_EQ(trace::cvpClassOf(OpClass::IntAlu), CvpInstClass::Alu);
    EXPECT_EQ(trace::cvpClassOf(OpClass::IntDiv),
              CvpInstClass::SlowAlu);
    EXPECT_EQ(trace::cvpClassOf(OpClass::Call),
              CvpInstClass::UncondDirect);
    EXPECT_EQ(trace::cvpClassOf(OpClass::Ret),
              CvpInstClass::UncondIndirect);
    EXPECT_EQ(trace::cvpClassOf(OpClass::Barrier), CvpInstClass::Alu);
    EXPECT_EQ(trace::cvpClassOf(OpClass::Nop), CvpInstClass::Undef);
}

TEST(CvpTrace, GzipRoundTrip)
{
    if (!trace::cvpGzipSupported())
        GTEST_SKIP() << "built without zlib";

    const auto ops = cornerTrace();
    const std::string path = tempPath("corner.cvp.gz");
    std::string err;
    ASSERT_TRUE(trace::saveCvpTraceFile(path, ops, true, &err))
        << err;

    // The file really is gzip (2-byte magic)...
    std::ifstream raw(path, std::ios::binary);
    unsigned char magic[2] = {0, 0};
    raw.read(reinterpret_cast<char *>(magic), 2);
    EXPECT_EQ(magic[0], 0x1f);
    EXPECT_EQ(magic[1], 0x8b);

    // ... and loads transparently back to the projection.
    std::vector<MicroOp> back;
    ASSERT_TRUE(trace::loadCvpTraceFile(path, back, &err)) << err;
    ASSERT_EQ(back.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i)
        EXPECT_EQ(trace::debugString(back[i]),
                  trace::debugString(trace::cvpProjection(ops[i])));
    std::remove(path.c_str());
}

TEST(CvpTrace, CorruptGzipFailsCleanly)
{
    if (!trace::cvpGzipSupported())
        GTEST_SKIP() << "built without zlib";
    const std::string path = tempPath("corrupt.cvp.gz");
    {
        std::ofstream os(path, std::ios::binary);
        const unsigned char junk[] = {0x1f, 0x8b, 0x00, 0x01, 0x02};
        os.write(reinterpret_cast<const char *>(junk), sizeof(junk));
    }
    std::vector<MicroOp> ops;
    std::string err;
    EXPECT_FALSE(trace::loadCvpTraceFile(path, ops, &err));
    EXPECT_FALSE(err.empty());
    std::remove(path.c_str());
}

/**
 * @file
 * Golden counter pins for the cycle-level core (`ctest -L
 * differential`): every SimStats counter of six flush-heavy kernels,
 * run through {no-VP, composite, oracle} pipelines on two core
 * geometries, hashed (FNV-1a over forEachCounter's names and values)
 * and compared to pinned values.
 *
 * The Table III geometry is also covered by the suite-level checks;
 * the narrow geometry (tiny ROB, IQ, LDQ, STQ and PAQ, one load/store
 * lane, a long divide) is what keeps IQ-full, LS-lane, PAQ-full and
 * barrier stalls pinned. A scheduler change that moves any counter
 * by one fails here. A deliberate timing-model change re-pins: the
 * failure message prints the new hash.
 *
 * CoreWork pins the scheduler's bookkeeping work (ROB seq lookups, IQ
 * visits, dependency checks, completion visits) for three kernels the
 * same way: exact counts, so a lost scheduling optimisation fails a
 * tolerance-0 gate that host timing noise cannot fool.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>

#include "common/binio.hh"
#include "core/composite.hh"
#include "pipeline/core.hh"
#include "qa/differential.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

constexpr std::uint64_t kInstrs = 20000;

pipe::CoreConfig
narrowCore()
{
    pipe::CoreConfig c;
    c.robSize = 32;
    c.iqSize = 12;
    c.lsLanes = 1;
    c.ldqSize = 8;
    c.stqSize = 6;
    c.paqSize = 2;
    c.intDivLat = 40;
    return c;
}

vp::CompositeConfig
goldenComposite()
{
    // The differential gate's composite: everything on, epochs short
    // enough that the AM and fusion machinery runs in 20K instructions.
    auto cfg = vp::CompositeConfig::bestOf(1024);
    cfg.epochInstrs = 5000;
    return cfg;
}

std::uint64_t
hashCounters(const pipe::SimStats &s)
{
    std::uint64_t h = kFnvOffsetBasis;
    pipe::forEachCounter(s, [&](std::string_view name, std::uint64_t v) {
        h = fnv1a64(name.data(), name.size(), h);
        h = fnv1a64(&v, sizeof(v), h);
    });
    return h;
}

struct Pin
{
    const char *kernel;
    bool narrow;
    std::uint64_t base, composite, oracle;
};

// clang-format off
const Pin kPins[] = {
    {"big_code",          false, 0x8cc3bd3a4d564da5ull, 0xfbcd43bd3a263793ull, 0xd50aa64c812f1221ull},
    {"producer_consumer", false, 0x4dec0f238ea8d0d7ull, 0x3ef07a81cae79ad8ull, 0x405075ba283f6f19ull},
    {"stack_spill",       false, 0x2fbf5c705430863bull, 0xb6ead0daac58de46ull, 0xd005e8e860e867f1ull},
    {"hash_probe",        false, 0xc5031318a9f0db54ull, 0x29c7d3b620466e9full, 0x5ca68375f6d9ac1aull},
    {"sort_qsort",        false, 0xc7977d592450fa2dull, 0xee85e5eb19ff7744ull, 0x3059fd1dca9b7d45ull},
    {"interp_dispatch",   false, 0xf7e8885dac742c03ull, 0xb39d1095de90e6abull, 0xfa84da83803f0d82ull},
    {"big_code",          true,  0xc09c45305c46ae09ull, 0x320548742fdfac26ull, 0x5abb266d51735cfbull},
    {"producer_consumer", true,  0xb4f86212268e50c6ull, 0xf4a917d237d1d7a4ull, 0x377b69cda0c942e4ull},
    {"stack_spill",       true,  0xde670e43c07d8c2full, 0x82ef037e564a1b50ull, 0x78d0c1a5543b8869ull},
    {"hash_probe",        true,  0x4269216136e4f322ull, 0x89b9faa199a2e932ull, 0x0ba7603bc526622aull},
    {"sort_qsort",        true,  0x62b0cab72e9c24b6ull, 0x9537011804744776ull, 0x01222b493258adbeull},
    {"interp_dispatch",   true,  0x3dc3145b4bcd4da4ull, 0x81eff4d290568d64ull, 0x9e124605a8504eb1ull},
};
// clang-format on

std::string
pinName(const testing::TestParamInfo<Pin> &info)
{
    return std::string(info.param.kernel) +
           (info.param.narrow ? "_narrow" : "_table3");
}

/** gtest prints a failing parameter with this, not as raw bytes. */
void
PrintTo(const Pin &p, std::ostream *os)
{
    *os << p.kernel << (p.narrow ? " (narrow)" : " (Table III)");
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // anonymous namespace

class CoreGolden : public testing::TestWithParam<Pin>
{};

TEST_P(CoreGolden, CountersMatchPins)
{
    const Pin &p = GetParam();
    const auto code = trace::generateWorkload(p.kernel, kInstrs, 1);
    ASSERT_FALSE(code.empty());
    const auto r = qa::runDifferential(
        p.narrow ? narrowCore() : pipe::CoreConfig{}, goldenComposite(),
        code);
    ASSERT_TRUE(r.ok()) << r.failureReport();

    const std::uint64_t base = hashCounters(r.base.stats);
    const std::uint64_t comp = hashCounters(r.composite.stats);
    const std::uint64_t orac = hashCounters(r.oracle.stats);
    EXPECT_EQ(base, p.base) << "no-VP counters moved: " << hex(base);
    EXPECT_EQ(comp, p.composite)
        << "composite counters moved: " << hex(comp) << " (vp flushes "
        << r.composite.stats.vpFlushes << ", memory-order flushes "
        << r.composite.stats.memOrderFlushes << ")";
    EXPECT_EQ(orac, p.oracle) << "oracle counters moved: " << hex(orac);
}

INSTANTIATE_TEST_SUITE_P(FlushHeavyKernels, CoreGolden,
                         testing::ValuesIn(kPins), pinName);

namespace
{

struct WorkPin
{
    const char *kernel;
    pipe::CoreWork work;
};

// clang-format off
// Counts: {robSeqLookups, iqVisits, depChecks, completionVisits}.
const WorkPin kWorkPins[] = {
    {"pointer_chase", {2550, 344695, 54496, 20253}},
    {"hash_probe",    {41, 435644, 32632, 20176}},
    {"sort_qsort",    {1861, 46476, 30225, 20072}},
};
// clang-format on

void
PrintTo(const WorkPin &p, std::ostream *os)
{
    *os << p.kernel;
}

} // anonymous namespace

class CoreWorkPins : public testing::TestWithParam<WorkPin>
{};

TEST_P(CoreWorkPins, SchedulerWorkMatchesPins)
{
    const WorkPin &p = GetParam();
    const auto code = trace::generateWorkload(p.kernel, kInstrs, 1);
    vp::CompositePredictor pred(goldenComposite());
    pipe::Core core(pipe::CoreConfig{}, code, &pred);
    const pipe::SimStats st = core.run();
    const pipe::CoreWork &w = core.work();
    const std::string got =
        "{" + std::to_string(w.robSeqLookups) + ", " +
        std::to_string(w.iqVisits) + ", " + std::to_string(w.depChecks) +
        ", " + std::to_string(w.completionVisits) + "}";
    EXPECT_EQ(st.instructions, kInstrs);
    EXPECT_EQ(w.robSeqLookups, p.work.robSeqLookups) << got;
    EXPECT_EQ(w.iqVisits, p.work.iqVisits) << got;
    EXPECT_EQ(w.depChecks, p.work.depChecks) << got;
    EXPECT_EQ(w.completionVisits, p.work.completionVisits) << got;
}

INSTANTIATE_TEST_SUITE_P(
    ThreeKernels, CoreWorkPins, testing::ValuesIn(kWorkPins),
    [](const testing::TestParamInfo<WorkPin> &info) {
        return std::string(info.param.kernel);
    });

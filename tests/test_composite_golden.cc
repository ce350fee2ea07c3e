/**
 * @file
 * Golden pins for the composite predictor (`ctest -L differential`),
 * driven through its public API only.
 *
 * Each configuration replays the same seeded event stream: branches,
 * load probes with random in-flight counts, retire-order training
 * with fuzzed validation verdicts, youngest-first squashes, and the
 * odd outcome whose probe was never made (the no-snapshot path).
 * Every returned Prediction, the final CompositeStats, storageBits,
 * fusionEvents and pendingProbesPeak are folded into one FNV-1a64 per
 * configuration and compared to a pinned value.
 *
 * The grid covers what a change to the component tables or to the
 * composite's per-probe bookkeeping can move: two homogeneous
 * budgets, bestOf with epochs short enough that fusion fires while
 * probes are in flight, both AM flavours, the shared value array, a
 * reversed selection order, per-component threshold overrides and
 * each component standalone. A deliberate behaviour change re-pins:
 * the failure message prints the new hash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <ostream>
#include <string>

#include "common/binio.hh"
#include "core/composite.hh"
#include "qa/generators.hh"
#include "qa/property.hh"

using namespace lvpsim;

namespace
{

constexpr std::size_t kProbes = 50000;

struct Hasher
{
    std::uint64_t h = kFnvOffsetBasis;

    void
    add(std::uint64_t v)
    {
        h = fnv1a64(&v, sizeof(v), h);
    }

    void
    add(const pipe::Prediction &p)
    {
        add(std::uint64_t(p.kind));
        add(p.value);
        add(p.addr);
        add(std::uint64_t(p.component));
    }

    void
    add(const vp::CompositeStats &s)
    {
        add(s.probes);
        add(s.trainEvents);
        add(s.componentsTrained);
        add(s.sapInvalidations);
        add(s.amSquashes);
        for (const auto v : s.confidentHist)
            add(v);
        for (const auto v : s.soloByComponent)
            add(v);
    }
};

struct Pending
{
    std::uint64_t token = 0;
    const trace::MicroOp *op = nullptr;
    pipe::Prediction pred{};
};

/** Replay the seeded event stream through @p p and hash everything
 *  it reports. */
std::uint64_t
replay(vp::CompositePredictor &p)
{
    qa::Gen g(qa::caseSeed(0x901d, 1));
    qa::TraceGenConfig tcfg;
    tcfg.minOps = 4096;
    tcfg.maxOps = 4096;
    const auto ops = qa::genTrace(g, tcfg);

    Hasher h;
    std::deque<Pending> pending;
    std::uint64_t next_token = 1;

    auto outcomeOf = [](const trace::MicroOp &op, std::uint64_t token) {
        pipe::LoadOutcome out;
        out.pc = op.pc;
        out.token = token;
        out.effAddr = op.effAddr;
        out.size = op.memSize;
        out.value = op.memValue;
        return out;
    };
    auto trainOldest = [&] {
        const Pending pp = pending.front();
        pending.pop_front();
        auto out = outcomeOf(*pp.op, pp.token);
        out.predictionUsed = pp.pred.valid() && g.chance(0.9);
        out.predictionCorrect =
            out.predictionUsed &&
            (pp.pred.isValue() ? pp.pred.value == out.value
                               : g.chance(0.7));
        p.train(out);
        p.onRetire(1 + g.below(4));
    };

    std::size_t probes = 0, i = 0;
    while (probes < kProbes) {
        const trace::MicroOp &op = ops[i];
        i = (i + 1) % ops.size();
        if (op.isBranch()) {
            p.notifyBranch(op.pc, op.taken, op.target);
            continue;
        }
        if (!op.isPredictableLoad())
            continue;

        if (g.chance(0.01)) {
            // A retired load the predictor never probed.
            p.train(outcomeOf(op, next_token++));
            continue;
        }
        pipe::LoadProbe probe;
        probe.pc = op.pc;
        probe.token = next_token++;
        probe.inflightSamePc = unsigned(g.below(3));
        Pending pp;
        pp.token = probe.token;
        pp.op = &op;
        pp.pred = p.predict(probe);
        h.add(pp.pred);
        p.notifyLoad(op.pc);
        pending.push_back(pp);
        ++probes;

        while (pending.size() > 72 || (!pending.empty() && g.chance(0.45)))
            trainOldest();
        if (!pending.empty() && g.chance(0.03)) {
            const std::size_t squash = 1 + g.below(pending.size());
            for (std::size_t k = 0; k < squash; ++k) {
                p.abandon(pending.back().token);
                pending.pop_back();
            }
        }
    }
    while (!pending.empty())
        trainOldest();

    h.add(p.compositeStats());
    h.add(p.storageBits());
    h.add(p.fusionEvents());
    h.add(p.pendingProbesPeak());
    h.add(p.pendingProbes());
    return h.h;
}

vp::CompositeConfig
withAm(vp::AmKind am)
{
    auto cfg = vp::CompositeConfig::homogeneous(1024);
    cfg.am = am;
    cfg.epochInstrs = 2000;
    return cfg;
}

/** One grid point: its name (see build()) and its pinned hash. */
struct GoldenCase
{
    const char *name;
    std::uint64_t pin;
};

std::unique_ptr<vp::CompositePredictor>
build(const std::string &name)
{
    using vp::CompositeConfig;
    auto make = [](const CompositeConfig &cfg) {
        return std::make_unique<vp::CompositePredictor>(cfg);
    };
    if (name == "homogeneous_256")
        return make(CompositeConfig::homogeneous(256));
    if (name == "homogeneous_2048")
        return make(CompositeConfig::homogeneous(2048));
    if (name == "bestOf_1024_fusing") {
        auto cfg = CompositeConfig::bestOf(1024);
        cfg.epochInstrs = 2000;
        return make(cfg);
    }
    if (name == "mAm")
        return make(withAm(vp::AmKind::MAm));
    if (name == "pcAmInfinite")
        return make(withAm(vp::AmKind::PcAmInfinite));
    if (name == "sharedValueArray") {
        auto cfg = CompositeConfig::homogeneous(1024);
        cfg.sharedValueArray = true;
        return make(cfg);
    }
    if (name == "reversedSelection") {
        auto cfg = CompositeConfig::homogeneous(1024);
        cfg.selectionOrder = {1, 3, 0, 2};
        return make(cfg);
    }
    if (name == "thresholdOverrides") {
        auto cfg = CompositeConfig::homogeneous(1024);
        cfg.lvpConfThreshold = 3;
        cfg.sapConfThreshold = 2;
        cfg.cvpConfThreshold = 2;
        cfg.capConfThreshold = 1;
        return make(cfg);
    }
    const std::string single = "single_";
    for (const auto id : {pipe::ComponentId::LVP, pipe::ComponentId::SAP,
                          pipe::ComponentId::CVP, pipe::ComponentId::CAP})
        if (name == single + pipe::componentName(id))
            return vp::makeSinglePredictor(id, 512);
    return nullptr;
}

// clang-format off
const GoldenCase kCases[] = {
    {"homogeneous_256",    0x9e20981778fbc94eull},
    {"homogeneous_2048",   0x7a95e4e477df565aull},
    {"bestOf_1024_fusing", 0x684410cfdfd2d8d0ull},
    {"mAm",                0x34781f848ed998d7ull},
    {"pcAmInfinite",       0xd4bd86e0e5e55827ull},
    {"sharedValueArray",   0xbbd4fd12db76653bull},
    {"reversedSelection",  0x02ce412eaf0444b2ull},
    {"thresholdOverrides", 0xd7d33b9b9cd2e674ull},
    {"single_LVP",         0x458f4248b428fe59ull},
    {"single_SAP",         0x3d8bbeba38239adaull},
    {"single_CVP",         0x5b728be23d2a412dull},
    {"single_CAP",         0x1e0092a2b10d7163ull},
};
// clang-format on

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
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

class CompositeGolden : public testing::TestWithParam<GoldenCase>
{};

TEST_P(CompositeGolden, ReplayMatchesPin)
{
    const GoldenCase &c = GetParam();
    auto p = build(c.name);
    ASSERT_NE(p, nullptr) << c.name;
    const std::uint64_t got = replay(*p);
    EXPECT_EQ(got, c.pin) << c.name << " moved: " << hex(got);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CompositeGolden, testing::ValuesIn(kCases),
    [](const testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

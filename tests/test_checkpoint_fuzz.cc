/**
 * @file
 * Property-based fuzz of core checkpoint/restore: for seeded random
 * traces and core configurations, a core that is warmed up, saved,
 * and allowed to continue must produce counter-identical statistics
 * to a fresh core restored from the same snapshot — with every
 * LVPSIM_CHECK pipeline invariant holding along the restored run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/composite.hh"
#include "pipeline/core.hh"
#include "qa/generators.hh"
#include "qa/property.hh"

using namespace lvpsim;

namespace
{

std::vector<std::pair<std::string, std::uint64_t>>
flat(const pipe::SimStats &s)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    pipe::forEachCounter(
        s, [&](std::string_view name, std::uint64_t v) {
            out.emplace_back(std::string(name), v);
        });
    return out;
}

const std::vector<pipe::ComponentId> kComponents = {
    pipe::ComponentId::LVP, pipe::ComponentId::SAP,
    pipe::ComponentId::CVP, pipe::ComponentId::CAP};

} // anonymous namespace

TEST(CheckpointFuzz, RestoredCoreMatchesContinuedCore)
{
    const auto res = qa::forAllSeeds(
        25, 0xc4ec9, [](qa::Gen &g) -> bool {
            qa::TraceGenConfig tcfg;
            tcfg.minOps = 512;
            tcfg.maxOps = 3000;
            const auto code = qa::genTrace(g, tcfg);
            const auto ccfg = qa::genCoreConfig(g);
            const auto warm = g.range(32, code.size() / 2);
            const auto comp = g.pick(kComponents);

            // One core warms up, is photographed, and continues.
            auto vp1 = vp::makeSinglePredictor(comp, 256);
            pipe::Core continued(ccfg, code, vp1.get());
            continued.warmup(warm);
            pipe::Core::State snap;
            continued.saveState(snap);
            const auto s1 = continued.run();

            // A fresh core (fresh predictor — the VP is untouched
            // during warmup by construction) restores and runs.
            auto vp2 = vp::makeSinglePredictor(comp, 256);
            pipe::Core restored(ccfg, code, vp2.get());
            restored.restoreState(snap);
            const auto s2 = restored.run();

            if (flat(s1) != flat(s2))
                throw std::runtime_error(
                    "restored-core stats diverged from the "
                    "continued core");
            return true;
        });
    EXPECT_TRUE(res.ok) << res.describe();
    EXPECT_EQ(res.casesRun, 25u);
}

TEST(CheckpointFuzz, SnapshotIsReusableAcrossPredictors)
{
    // One snapshot, many measurement runs — the sweep-engine usage
    // pattern. Restoring must not consume or mutate the snapshot.
    const auto res = qa::forAllSeeds(
        8, 0x5eed5, [](qa::Gen &g) -> bool {
            qa::TraceGenConfig tcfg;
            tcfg.minOps = 512;
            tcfg.maxOps = 2048;
            const auto code = qa::genTrace(g, tcfg);
            const auto ccfg = qa::genCoreConfig(g);
            const auto warm = g.range(32, code.size() / 2);

            pipe::Core warmer(ccfg, code, nullptr);
            warmer.warmup(warm);
            pipe::Core::State snap;
            warmer.saveState(snap);

            std::vector<std::vector<
                std::pair<std::string, std::uint64_t>>> first;
            for (int round = 0; round < 2; ++round) {
                for (std::size_t c = 0; c < kComponents.size();
                     ++c) {
                    auto vp =
                        vp::makeSinglePredictor(kComponents[c], 128);
                    pipe::Core core(ccfg, code, vp.get());
                    core.restoreState(snap);
                    const auto stats = flat(core.run());
                    if (round == 0)
                        first.push_back(stats);
                    else if (first[c] != stats)
                        throw std::runtime_error(
                            "second restore from the same snapshot "
                            "diverged");
                }
            }
            return true;
        });
    EXPECT_TRUE(res.ok) << res.describe();
}

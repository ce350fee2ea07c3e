/**
 * @file
 * Differential gate for warmup checkpointing: the checkpoint-restore
 * sweep engine (SuiteRunner -> runWorkload -> CheckpointCache /
 * BaselineCache) must produce counter-identical SimStats to a single
 * core that warms up and measures inline via runTrace(), for every
 * (workload, predictor configuration) pair, serially and with a
 * parallel runner.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/composite.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

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

const std::vector<std::string> &
testWorkloads()
{
    // Deliberately diverse: streaming loads, pointer chasing, and
    // call-heavy control flow stress different checkpointed state
    // (prefetcher, memdep, RAS/ITTAGE).
    static const std::vector<std::string> ws = {
        "stream_sum", "pointer_chase", "call_tree", "hash_probe"};
    return ws;
}

std::vector<std::pair<std::string, sim::PredictorFactory>>
testConfigs()
{
    std::vector<std::pair<std::string, sim::PredictorFactory>> out;
    out.emplace_back("lvp-1024", [] {
        return vp::makeSinglePredictor(pipe::ComponentId::LVP, 1024);
    });
    out.emplace_back("cap-512", [] {
        return vp::makeSinglePredictor(pipe::ComponentId::CAP, 512);
    });
    out.emplace_back("composite-1024", [] {
        auto cfg = vp::CompositeConfig::bestOf(1024);
        cfg.epochInstrs = 2000;
        return std::make_unique<vp::CompositePredictor>(cfg);
    });
    return out;
}

} // anonymous namespace

class WarmupDifferential : public testing::TestWithParam<std::size_t>
{};

TEST_P(WarmupDifferential, CheckpointedSweepMatchesInlineWarmup)
{
    const std::size_t jobs = GetParam();
    sim::RunConfig rc;
    rc.maxInstrs = 4000;
    rc.warmupInstrs = 8000;

    const auto &workloads = testWorkloads();
    const auto configs = testConfigs();

    // Reference: inline warmup + measurement, one core per pair.
    std::vector<std::vector<pipe::SimStats>> ref(configs.size());
    std::vector<pipe::SimStats> ref_base;
    for (const auto &w : workloads) {
        auto ops = sim::TraceCache::instance().get(
            w, sim::traceLength(rc), rc.traceSeed);
        pipe::NullPredictor none;
        ref_base.push_back(sim::runTrace(*ops, &none, rc));
        for (std::size_t c = 0; c < configs.size(); ++c) {
            auto vp = configs[c].second();
            ref[c].push_back(sim::runTrace(*ops, vp.get(), rc));
        }
    }

    // Under test: the checkpointing sweep engine, from cold caches.
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    sim::SuiteRunner runner(workloads, rc, jobs);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto res =
            runner.run(configs[c].first, configs[c].second);
        ASSERT_EQ(res.rows.size(), workloads.size());
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            EXPECT_EQ(flat(ref_base[w]), flat(res.rows[w].base))
                << configs[c].first << "/" << workloads[w]
                << " baseline diverged (jobs=" << jobs << ")";
            EXPECT_EQ(flat(ref[c][w]), flat(res.rows[w].withVp))
                << configs[c].first << "/" << workloads[w]
                << " diverged (jobs=" << jobs << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, WarmupDifferential,
                         testing::Values(std::size_t(1),
                                         std::size_t(4)),
                         [](const auto &info) {
                             return "jobs" +
                                    std::to_string(info.param);
                         });

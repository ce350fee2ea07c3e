/**
 * @file
 * The shape gate: every claim in the figure table (bench/figures.cc)
 * — EXPERIMENTS.md's "paper shape" statements and the pinned
 * non-reproductions — is checked on the full suite at 150K
 * instructions per workload, for seed 1 and for the held-out seed
 * 1009. A claim must hold, except where this file pins a
 * seed-dependent outcome: that claim must then fail on that seed, so
 * a flip either way is noticed.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <set>
#include <string>

#include "figures.hh"
#include "sim/parallel_executor.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

/**
 * The scale EXPERIMENTS.md reports. No scale from 30K to 300K has
 * every claim holding on both seeds (CHANGES.md has the table): at
 * 30K and 60K the Figure 6 PC-AM claim fails on both, and from 100K
 * up Figure 9's fusion gain at 256 entries is -0.01 to -0.07pp on
 * seed 1009.
 */
constexpr std::size_t kShapeInstrs = 150000;

/** Claims that fail on one seed at kShapeInstrs, with the measured
 *  value: seed 1009 has PC-AM(64) at -0.09pp against plain at 1K and
 *  fusion at -0.01pp at 256 entries (seed 1: +0.10pp and +0.47pp). */
const std::set<std::pair<std::uint64_t, std::string>> kFailsOnSeed = {
    {1009, "fig06.pcam64_at_least_plain_at_1k"},
    {1009, "fig09.fusion_helps_at_256"},
};

class Shape : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(Shape, EveryClaimHolds)
{
    bench::FigureContext ctx;
    ctx.rc.maxInstrs = kShapeInstrs;
    ctx.rc.traceSeed = GetParam();
    ctx.workloads = trace::allWorkloadNames();
    ASSERT_TRUE(sim::ParallelExecutor::parseJobs("auto", ctx.jobs));
    std::size_t claims = 0;
    for (const auto &fig : bench::figureTable()) {
        if (fig.claims.empty())
            continue;
        const auto verdicts = bench::checkClaims(fig, fig.run(ctx));
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
            const auto &v = verdicts[i];
            const bool expected = !kFailsOnSeed.count(
                {GetParam(),
                 std::string(fig.id) + "." + fig.claims[i].name});
            std::cout << "\n" << v.line << std::endl;
            EXPECT_EQ(v.holds, expected) << v.line;
            ++claims;
        }
    }
    EXPECT_EQ(claims, 12u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Shape, ::testing::Values(1u, 1009u));

} // anonymous namespace

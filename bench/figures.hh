/**
 * @file
 * The paper's tables and figures as one table of runnable specs
 * (bench/figures.cc), shared by the `figures` driver
 * (bench/figures_main.cc) and the shape gate (tests/test_shape.cc).
 *
 * Each figure runs at a caller-chosen scale, returns its text table
 * and the numbers its claims read, and declares those claims: the
 * "paper shape" statements of EXPERIMENTS.md as predicates that
 * either hold or fail on a run. Known non-reproductions are pinned
 * as expected outcomes, so a change that flips one is noticed too.
 */

#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/composite.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/tableio.hh"

namespace lvpsim
{
namespace bench
{

/** Scale the paper's 1M-instruction epochs to the run length. */
vp::CompositeConfig scaleEpochs(vp::CompositeConfig cfg,
                                std::size_t instrs);

/** The composite configuration that wins most broadly in this suite
 *  (PC-AM + fusion); used where one fixed design is required. */
vp::CompositeConfig tunedComposite(std::size_t total,
                                   std::size_t instrs);

sim::PredictorFactory compositeFactory(const vp::CompositeConfig &cfg);
sim::PredictorFactory singleFactory(pipe::ComponentId id,
                                    std::size_t entries);

/** What a figure runs at: scale, seed, workload list and workers. */
struct FigureContext
{
    sim::RunConfig rc;
    std::vector<std::string> workloads;
    std::size_t jobs = 1;
    /** Every suite result the figure produced, for --json. */
    std::vector<sim::SuiteResult> recorded;

    /** A runner over the workloads at @p cfg (default: rc) that
     *  records each result and prints a progress dot. */
    sim::SuiteRunner runner(const sim::RunConfig &cfg);
    sim::SuiteRunner runner() { return runner(rc); }
};

/** A figure's run: its table, free-form result lines printed after
 *  it, and the value of each claim by name. */
struct FigureOutput
{
    explicit FigureOutput(std::vector<std::string> columns)
        : table(std::move(columns))
    {}

    sim::TextTable table;
    std::vector<std::string> notes;
    std::map<std::string, double> measured;
};

/** A claim compares a measured value with a bound: value > bound,
 *  value >= bound, value < bound, or |value| <= bound. */
enum class ClaimOp
{
    Greater,
    AtLeast,
    Less,
    Within
};

struct Claim
{
    const char *name;
    ClaimOp op;
    double bound;
    const char *unit; ///< "pp" (percentage points) or "" (a number)
    /** A known non-reproduction pinned as the expected outcome. */
    bool pinned = false;
};

struct Verdict
{
    std::string line; ///< "claim fig09.x: +0.47pp > 0 — holds"
    bool holds;
};

struct Figure
{
    const char *id;
    const char *title;
    const char *csvTag; ///< CSV prefix and the JSON meta.suite tag
    FigureOutput (*run)(FigureContext &);
    std::vector<Claim> claims = {};
    bool inAll = true;     ///< run by --figure all
    bool usesSuite = true; ///< false: ignores the suite and scale
};

/** Every figure, in --figure all order. */
const std::vector<Figure> &figureTable();

/** The figure named @p id, or nullptr. */
const Figure *findFigure(std::string_view id);

/** Evaluate @p fig's claims on @p out; a claim whose value the run
 *  did not measure fails. */
std::vector<Verdict> checkClaims(const Figure &fig,
                                 const FigureOutput &out);

} // namespace bench
} // namespace lvpsim

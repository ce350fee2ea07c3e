/**
 * @file
 * The figure table: one run function per paper table, figure and
 * ablation, plus the claims each checks (see figures.hh). Claim
 * values are in percentage points of suite speedup, coverage or
 * accuracy unless the claim's unit says otherwise.
 */

#include "figures.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/mathutils.hh"
#include "core/cap.hh"
#include "core/cvp.hh"
#include "core/eves.hh"
#include "core/lvp.hh"
#include "core/oracle.hh"
#include "core/sap.hh"
#include "sim/parallel_executor.hh"
#include "trace/kernels/memset_loop.hh"

namespace lvpsim
{
namespace bench
{

vp::CompositeConfig
scaleEpochs(vp::CompositeConfig cfg, std::size_t instrs)
{
    cfg.epochInstrs = std::max<std::size_t>(2000, instrs / 40);
    return cfg;
}

vp::CompositeConfig
tunedComposite(std::size_t total, std::size_t instrs)
{
    auto cfg = scaleEpochs(vp::CompositeConfig::homogeneous(total),
                           instrs);
    cfg.am = vp::AmKind::PcAm;
    cfg.tableFusion = true;
    return cfg;
}

sim::PredictorFactory
compositeFactory(const vp::CompositeConfig &cfg)
{
    return [cfg] {
        return std::make_unique<vp::CompositePredictor>(cfg);
    };
}

sim::PredictorFactory
singleFactory(pipe::ComponentId id, std::size_t entries)
{
    return [id, entries] {
        return vp::makeSinglePredictor(id, entries);
    };
}

sim::SuiteRunner
FigureContext::runner(const sim::RunConfig &cfg)
{
    sim::SuiteRunner r(workloads, cfg, jobs);
    r.setObserver([this](const sim::SuiteResult &res) {
        recorded.push_back(res);
        std::cout << "." << std::flush;
    });
    return r;
}

namespace
{

using pipe::ComponentId;

constexpr ComponentId kComponents[] = {ComponentId::LVP, ComponentId::SAP,
                                       ComponentId::CVP, ComponentId::CAP};
constexpr std::size_t kTotals[] = {256, 512, 1024, 2048, 4096};

/** Percentage points between two fractions. */
double
pp(double a, double b)
{
    return 100.0 * (a - b);
}

/** @p cells followed by @p res's speedup, coverage and accuracy. */
std::vector<std::string>
withSca(std::vector<std::string> cells, const sim::SuiteResult &res)
{
    cells.push_back(sim::fmtPct(res.geomeanSpeedup()));
    cells.push_back(sim::fmtPct(res.meanCoverage()));
    cells.push_back(sim::fmtPct(res.meanAccuracy()));
    return cells;
}

sim::PredictorFactory
evesFactory(const vp::EvesConfig &cfg)
{
    return [cfg] { return std::make_unique<vp::EvesPredictor>(cfg); };
}

/** The best single component's suite speedup at @p total entries. */
std::pair<double, std::string>
bestComponent(sim::SuiteRunner &runner, std::size_t total)
{
    double best = -1.0;
    std::string name;
    for (ComponentId id : kComponents) {
        const auto res = runner.run(pipe::componentName(id),
                                    singleFactory(id, total));
        if (res.geomeanSpeedup() > best) {
            best = res.geomeanSpeedup();
            name = pipe::componentName(id);
        }
    }
    return {best, name};
}

/** Composite-over-component gain as a relative percentage. */
std::string
relativeGain(double composite, double component)
{
    return component > 0 ? sim::fmtPct(composite / component - 1.0)
                         : "n/a";
}

FigureOutput
fig02(FigureContext &ctx)
{
    FigureOutput out({"workload", "pattern1(LVP)", "pattern2(SAP)",
                      "pattern3(CVP/CAP)", "loads"});
    // Classify on the pool (one slot per workload), emit rows in
    // workload order afterwards: output is --jobs invariant.
    const auto &w = ctx.workloads;
    std::vector<vp::PatternBreakdown> per(w.size());
    sim::ParallelExecutor pool(ctx.jobs);
    pool.parallelFor(w.size(), [&](std::size_t i) {
        auto ops = sim::TraceCache::instance().get(
            w[i], ctx.rc.maxInstrs, ctx.rc.traceSeed);
        per[i] = vp::classifyLoadPatterns(*ops);
    });
    auto row = [&](const std::string &name,
                   const vp::PatternBreakdown &b) {
        out.table.addRow({name, sim::fmtPct(b.frac1()),
                          sim::fmtPct(b.frac2()),
                          sim::fmtPct(b.frac3()),
                          std::to_string(b.total())});
    };
    vp::PatternBreakdown total;
    for (std::size_t i = 0; i < w.size(); ++i) {
        row(w[i], per[i]);
        total.pattern1 += per[i].pattern1;
        total.pattern2 += per[i].pattern2;
        total.pattern3 += per[i].pattern3;
    }
    row("SUITE", total);
    return out;
}

FigureOutput
fig03(FigureContext &ctx)
{
    FigureOutput out({"predictor", "entries", "storageKB", "speedup",
                      "coverage", "accuracy"});
    auto runner = ctx.runner();
    for (ComponentId id : kComponents)
        for (std::size_t n : {64, 128, 256, 512, 1024, 2048, 4096}) {
            const auto res = runner.run(pipe::componentName(id),
                                        singleFactory(id, n));
            out.table.addRow(withSca({pipe::componentName(id),
                                      std::to_string(n),
                                      sim::fmtF(res.storageKB(), 2)},
                                     res));
        }
    return out;
}

/** Confident-component counts of a composite, summed over the suite
 *  (Figures 4 and 7). */
struct Overlap
{
    std::array<std::uint64_t, vp::numComponents + 1> hist{};
    std::array<std::uint64_t, vp::numComponents> solo{};
    double avgTrained = 0.0;

    std::uint64_t
    predicted() const
    {
        return hist[1] + hist[2] + hist[3] + hist[4];
    }

    /** Share of predicted loads more than one component predicted. */
    double
    multi() const
    {
        return predicted()
                   ? double(hist[2] + hist[3] + hist[4]) / predicted()
                   : 0.0;
    }
};

Overlap
overlap(FigureContext &ctx, const vp::CompositeConfig &cfg)
{
    // Indexed slots + serial reduction: the aggregate is identical
    // for any --jobs value.
    std::vector<vp::CompositeStats> per(ctx.workloads.size());
    sim::ParallelExecutor pool(ctx.jobs);
    pool.parallelFor(per.size(), [&](std::size_t i) {
        vp::CompositePredictor p(cfg);
        (void)sim::runWorkload(ctx.workloads[i], &p, ctx.rc);
        per[i] = p.compositeStats();
        std::cout << "." << std::flush;
    });
    Overlap agg;
    double trained_sum = 0.0;
    for (const auto &cs : per) {
        for (std::size_t i = 0; i < agg.hist.size(); ++i)
            agg.hist[i] += cs.confidentHist[i];
        for (std::size_t c = 0; c < agg.solo.size(); ++c)
            agg.solo[c] += cs.soloByComponent[c];
        trained_sum += cs.avgTrainedPerLoad();
    }
    agg.avgTrained = trained_sum / double(per.size());
    return agg;
}

FigureOutput
fig04(FigureContext &ctx)
{
    FigureOutput out({"bucket", "loads", "pct_of_predicted"});
    // Plain composite, 1K entries per component, no optimizations.
    vp::CompositeConfig cfg;
    cfg.lvpEntries = cfg.sapEntries = cfg.cvpEntries =
        cfg.capEntries = 1024;
    const Overlap o = overlap(ctx, cfg);
    auto row = [&](const std::string &bucket, std::uint64_t n) {
        out.table.addRow(
            {bucket, std::to_string(n),
             sim::fmtPct(o.predicted() ? double(n) / o.predicted()
                                       : 0.0)});
    };
    for (ComponentId id : kComponents)
        row(std::string("one (by ") + pipe::componentName(id) + ")",
            o.solo[std::size_t(id)]);
    row("two", o.hist[2]);
    row("three", o.hist[3]);
    row("four", o.hist[4]);
    out.notes.push_back("loads predicted by more than one component: " +
                        sim::fmtPct(o.multi()) + "   (paper: ~66%)");
    return out;
}

FigureOutput
fig05(FigureContext &ctx)
{
    FigureOutput out({"total_entries", "composite", "best_component",
                      "which", "composite_vs_best"});
    auto runner = ctx.runner();
    double worst = INFINITY;
    for (std::size_t total : kTotals) {
        const double comp =
            runner
                .run("composite",
                     compositeFactory(
                         vp::CompositeConfig::homogeneous(total)))
                .geomeanSpeedup();
        const auto [best, name] = bestComponent(runner, total);
        out.table.addRow({std::to_string(total), sim::fmtPct(comp),
                          sim::fmtPct(best), name,
                          relativeGain(comp, best)});
        worst = std::min(worst, pp(comp, best));
    }
    out.measured["composite_beats_best_component"] = worst;
    return out;
}

FigureOutput
fig06(FigureContext &ctx)
{
    FigureOutput out({"total_entries", "am", "speedup", "coverage",
                      "accuracy", "delta_vs_noAM"});
    auto runner = ctx.runner();
    const std::pair<vp::AmKind, const char *> kinds[] = {
        {vp::AmKind::MAm, "M-AM"},
        {vp::AmKind::PcAm, "PC-AM(64)"},
        {vp::AmKind::PcAmInfinite, "PC-AM(inf)"},
    };
    std::map<std::string, sim::SuiteResult> at1k;
    for (std::size_t total : {512, 1024, 2048}) {
        const auto base_cfg = scaleEpochs(
            vp::CompositeConfig::homogeneous(total), ctx.rc.maxInstrs);
        const auto none =
            runner.run("composite", compositeFactory(base_cfg));
        auto row = withSca({std::to_string(total), "none"}, none);
        row.push_back("-");
        out.table.addRow(row);
        if (total == 1024)
            at1k["none"] = none;
        for (const auto &[kind, name] : kinds) {
            auto cfg = base_cfg;
            cfg.am = kind;
            const auto res = runner.run(name, compositeFactory(cfg));
            row = withSca({std::to_string(total), name}, res);
            row.push_back(sim::fmtPct(res.geomeanSpeedup() -
                                      none.geomeanSpeedup()));
            out.table.addRow(row);
            if (total == 1024)
                at1k[name] = res;
        }
    }
    const auto speedup = [&](const char *name) {
        return at1k[name].geomeanSpeedup();
    };
    out.measured["pcam64_tracks_pcam_inf_at_1k"] =
        pp(speedup("PC-AM(64)"), speedup("PC-AM(inf)"));
    out.measured["pcam64_at_least_plain_at_1k"] =
        pp(speedup("PC-AM(64)"), speedup("none"));
    out.measured["mam_raises_accuracy_at_1k"] =
        pp(at1k["M-AM"].meanAccuracy(), at1k["none"].meanAccuracy());
    out.measured["mam_loses_speedup_at_1k"] =
        pp(speedup("M-AM"), speedup("none"));
    return out;
}

FigureOutput
fig07(FigureContext &ctx)
{
    FigureOutput out({"total_entries", "policy", "oneLVP", "oneSAP",
                      "oneCVP", "oneCAP", "two", "three", "four",
                      "multi_pct", "avg_trained"});
    double multi_gap = -INFINITY, trained_gap = -INFINITY;
    for (std::size_t total : kTotals) {
        Overlap by_policy[2];
        for (bool smart : {false, true}) {
            auto cfg = vp::CompositeConfig::homogeneous(total);
            cfg.smartTraining = smart;
            const Overlap o = overlap(ctx, cfg);
            out.table.addRow(
                {std::to_string(total), smart ? "smart" : "train-all",
                 std::to_string(o.solo[0]), std::to_string(o.solo[1]),
                 std::to_string(o.solo[2]), std::to_string(o.solo[3]),
                 std::to_string(o.hist[2]), std::to_string(o.hist[3]),
                 std::to_string(o.hist[4]), sim::fmtPct(o.multi()),
                 sim::fmtF(o.avgTrained, 2)});
            by_policy[smart] = o;
        }
        multi_gap = std::max(multi_gap, pp(by_policy[1].multi(),
                                           by_policy[0].multi()));
        trained_gap = std::max(trained_gap, by_policy[1].avgTrained -
                                                by_policy[0].avgTrained);
    }
    out.measured["smart_cuts_multi_predicted"] = multi_gap;
    out.measured["smart_cuts_trained_per_load"] = trained_gap;
    return out;
}

FigureOutput
fig08(FigureContext &ctx)
{
    FigureOutput out(
        {"total_entries", "train_all", "smart", "smart_gain"});
    auto runner = ctx.runner();
    for (std::size_t total : kTotals) {
        auto cfg = vp::CompositeConfig::homogeneous(total);
        const double all =
            runner.run("train-all", compositeFactory(cfg))
                .geomeanSpeedup();
        cfg.smartTraining = true;
        const double smart =
            runner.run("smart", compositeFactory(cfg)).geomeanSpeedup();
        out.table.addRow({std::to_string(total), sim::fmtPct(all),
                          sim::fmtPct(smart),
                          sim::fmtPct(smart - all)});
        if (total == 1024)
            out.measured["smart_training_loses_at_1k"] = pp(smart, all);
    }
    return out;
}

FigureOutput
fig09(FigureContext &ctx)
{
    FigureOutput out(
        {"total_entries", "no_fusion", "fusion", "fusion_gain"});
    auto runner = ctx.runner();
    for (std::size_t total : {256, 512, 1024, 2048}) {
        auto cfg = scaleEpochs(vp::CompositeConfig::homogeneous(total),
                               ctx.rc.maxInstrs);
        const double off =
            runner.run("no-fusion", compositeFactory(cfg))
                .geomeanSpeedup();
        cfg.tableFusion = true;
        const double on =
            runner.run("fusion", compositeFactory(cfg)).geomeanSpeedup();
        out.table.addRow({std::to_string(total), sim::fmtPct(off),
                          sim::fmtPct(on), sim::fmtPct(on - off)});
        if (total == 256)
            out.measured["fusion_helps_at_256"] = pp(on, off);
    }
    return out;
}

/**
 * The composite optimization variants a designer would choose among
 * (the paper's Figure 10 reports the MAX over its composite design
 * space). Smart training and fusion are included both on and off:
 * their benefit depends on table pressure, which varies by suite.
 */
std::vector<std::pair<std::string, vp::CompositeConfig>>
compositeVariants(std::size_t total, std::size_t instrs)
{
    std::vector<std::pair<std::string, vp::CompositeConfig>> out;
    auto base = scaleEpochs(vp::CompositeConfig::homogeneous(total),
                            instrs);
    out.emplace_back("plain", base);
    auto am = base;
    am.am = vp::AmKind::PcAm;
    out.emplace_back("pc-am", am);
    auto fused = am;
    fused.tableFusion = true;
    out.emplace_back("pc-am+fusion", fused);
    auto all = fused;
    all.smartTraining = true;
    out.emplace_back("all-opts", all);
    return out;
}

FigureOutput
fig10(FigureContext &ctx)
{
    FigureOutput out({"total_entries", "storageKB", "best_composite",
                      "which_opts", "best_component", "which",
                      "relative_benefit"});
    auto runner = ctx.runner();
    double worst = INFINITY;
    for (std::size_t total : kTotals) {
        double comp_best = -1e9, comp_kb = 0.0;
        std::string comp_name;
        for (const auto &[name, cfg] :
             compositeVariants(total, ctx.rc.maxInstrs)) {
            const auto res = runner.run(name, compositeFactory(cfg));
            if (res.geomeanSpeedup() > comp_best) {
                comp_best = res.geomeanSpeedup();
                comp_name = name;
                comp_kb = res.storageKB();
            }
        }
        const auto [best, best_name] = bestComponent(runner, total);
        out.table.addRow({std::to_string(total), sim::fmtF(comp_kb, 2),
                          sim::fmtPct(comp_best), comp_name,
                          sim::fmtPct(best), best_name,
                          relativeGain(comp_best, best)});
        worst = std::min(worst, pp(comp_best, best));
    }
    out.measured["best_composite_beats_best_component"] = worst;
    return out;
}

FigureOutput
fig11(FigureContext &ctx)
{
    FigureOutput out(
        {"predictor", "storageKB", "speedup", "coverage", "accuracy"});
    auto runner = ctx.runner();
    // Composite budgets: 512 entries ~ 4.2KB, 1024 entries ~ 9.6KB
    // (at 76.5 bits/entry average, plus the PC-AM).
    const auto c42 = runner.run(
        "composite",
        compositeFactory(tunedComposite(512, ctx.rc.maxInstrs)));
    const auto c96 = runner.run(
        "composite",
        compositeFactory(tunedComposite(1024, ctx.rc.maxInstrs)));
    const auto e8 =
        runner.run("eves8k", evesFactory(vp::EvesConfig::small8k()));
    const auto e32 =
        runner.run("eves32k", evesFactory(vp::EvesConfig::large32k()));
    const auto einf =
        runner.run("evesinf", evesFactory(vp::EvesConfig::infinite()));
    for (const auto &[name, res] :
         {std::pair<const char *, const sim::SuiteResult &>{
              "composite-512", c42},
          {"composite-1024", c96},
          {"EVES-8KB", e8},
          {"EVES-32KB", e32},
          {"EVES-inf", einf}})
        out.table.addRow(
            withSca({name, sim::fmtF(res.storageKB(), 1)}, res));
    const auto gain = [](double c, double e) {
        return sim::fmtPct(e > 0 ? c / e - 1.0 : 0.0);
    };
    out.notes.push_back(
        "composite(1024) vs EVES-32KB:  speedup increase " +
        gain(c96.geomeanSpeedup(), e32.geomeanSpeedup()) +
        "  coverage increase " +
        gain(c96.meanCoverage(), e32.meanCoverage()));
    out.notes.push_back("paper: +55% speedup, +133% coverage");
    out.measured["composite_beats_eves32k_speedup"] =
        pp(c96.geomeanSpeedup(), e32.geomeanSpeedup());
    out.measured["composite_beats_eves32k_coverage"] =
        pp(c96.meanCoverage(), e32.meanCoverage());
    return out;
}

FigureOutput
fig12(FigureContext &ctx)
{
    FigureOutput out({"workload", "composite_speedup", "eves_speedup",
                      "composite_coverage", "eves_coverage", "winner"});
    auto runner = ctx.runner();
    const auto comp = runner.run(
        "composite",
        compositeFactory(tunedComposite(1024, ctx.rc.maxInstrs)));
    const auto eves =
        runner.run("eves", evesFactory(vp::EvesConfig::large32k()));
    int comp_wins = 0, eves_wins = 0, ties = 0;
    for (std::size_t i = 0; i < comp.rows.size(); ++i) {
        const auto &c = comp.rows[i];
        const auto &e = eves.rows[i];
        const double dc = c.speedup(), de = e.speedup();
        const char *winner = "tie";
        if (dc > de + 0.002) {
            winner = "composite";
            ++comp_wins;
        } else if (de > dc + 0.002) {
            winner = "eves";
            ++eves_wins;
        } else {
            ++ties;
        }
        out.table.addRow({c.workload, sim::fmtPct(dc), sim::fmtPct(de),
                          sim::fmtPct(c.coverage()),
                          sim::fmtPct(e.coverage()), winner});
    }
    out.table.addRow({"AVERAGE", sim::fmtPct(comp.geomeanSpeedup()),
                      sim::fmtPct(eves.geomeanSpeedup()),
                      sim::fmtPct(comp.meanCoverage()),
                      sim::fmtPct(eves.meanCoverage()), ""});
    out.notes.push_back(
        "composite wins " + std::to_string(comp_wins) + ", EVES wins " +
        std::to_string(eves_wins) + ", ties " + std::to_string(ties) +
        " (of " + std::to_string(comp.rows.size()) +
        ")   paper: composite 67/85, EVES 9/85");
    return out;
}

/**
 * Table V's in-order, aliasing-free analysis: probe and train one
 * component standalone in trace order and return, per outer
 * iteration, the first inner index it predicts correctly (-1: none).
 */
std::map<unsigned, int>
firstPredictions(vp::ComponentPredictor &comp,
                 const std::vector<trace::MicroOp> &ops,
                 Addr studied_pc, unsigned inner_n)
{
    std::map<unsigned, int> first_pred;
    std::uint64_t token = 1;
    unsigned outer = 0, inner = 0;
    for (const auto &op : ops) {
        if (op.isBranch())
            comp.notifyBranch(op.pc, op.taken, op.target);
        if (!op.isLoad())
            continue;
        pipe::LoadProbe probe;
        probe.pc = op.pc;
        probe.token = token;
        const auto cp = comp.lookup(probe);
        if (op.pc == studied_pc) {
            const bool correct =
                cp.confident &&
                (cp.pred.isValue() ? cp.pred.value == op.memValue
                                   : cp.pred.addr == op.effAddr);
            if (correct && !first_pred.count(outer))
                first_pred[outer] = int(inner);
            if (++inner == inner_n) {
                if (!first_pred.count(outer))
                    first_pred[outer] = -1;
                inner = 0;
                ++outer;
            }
        }
        pipe::LoadOutcome o;
        o.pc = op.pc;
        o.token = token++;
        o.effAddr = op.effAddr;
        o.size = op.memSize;
        o.value = op.memValue;
        comp.train(o, cp);
    }
    return first_pred;
}

FigureOutput
tab05(FigureContext &)
{
    constexpr unsigned inner_n = 16;
    const unsigned outs[] = {0, 1, 2, 4, 8, 16, 32, 64};
    FigureOutput out({"predictor", "o=0", "o=1", "o=2", "o=4", "o=8",
                      "o=16", "o=32", "o=64"});
    const auto ops =
        trace::MemsetLoopKernel(inner_n, 80).generate(1u << 20, 1);
    // The studied load is the only load site in the kernel.
    const auto studied = std::find_if(
        ops.begin(), ops.end(), [](const auto &op) { return op.isLoad(); });
    const Addr studied_pc = studied == ops.end() ? 0 : studied->pc;

    auto row = [&](const char *name, vp::ComponentPredictor &&comp) {
        const auto fp = firstPredictions(comp, ops, studied_pc, inner_n);
        std::vector<std::string> cells{name};
        for (unsigned o : outs) {
            const auto it = fp.find(o);
            cells.push_back(it == fp.end() || it->second < 0
                                ? "-"
                                : std::to_string(it->second));
        }
        out.table.addRow(cells);
    };
    row("LVP", vp::Lvp(1024, 1));
    row("SAP", vp::Sap(1024, 1));
    row("CVP", vp::Cvp(1024, 1));
    row("CAP", vp::Cap(1024, 1));
    out.notes.push_back("('-' = no prediction that outer iteration)");
    return out;
}

/** A component allocation: eighths of the budget for LVP, SAP, CVP
 *  and CAP, summing to 8. */
using Allocation = std::pair<std::string, std::array<unsigned, 4>>;

FigureOutput
heterogeneous(FigureContext &ctx,
              const std::vector<Allocation> &allocations)
{
    FigureOutput out({"total", "best_config", "LVP", "SAP", "CVP",
                      "CAP", "storageKB", "speedup", "speedup_perKB",
                      "vs_homogeneous"});
    auto runner = ctx.runner();
    for (std::size_t total : kTotals) {
        double best = -1e9, homog = 0.0, best_kb = 0.0;
        const std::string *best_name = nullptr;
        std::array<std::size_t, 4> best_sizes{};
        for (const auto &[name, eighths] : allocations) {
            vp::CompositeConfig cfg;
            cfg.lvpEntries = total * eighths[0] / 8;
            cfg.sapEntries = total * eighths[1] / 8;
            cfg.cvpEntries = total * eighths[2] / 8;
            cfg.capEntries = total * eighths[3] / 8;
            const auto res = runner.run(name, compositeFactory(cfg));
            const double sp = res.geomeanSpeedup();
            if (eighths == std::array<unsigned, 4>{2, 2, 2, 2})
                homog = sp;
            if (sp > best) {
                best = sp;
                best_name = &name;
                best_kb = res.storageKB();
                best_sizes = {cfg.lvpEntries, cfg.sapEntries,
                              cfg.cvpEntries, cfg.capEntries};
            }
        }
        out.table.addRow({std::to_string(total), *best_name,
                          std::to_string(best_sizes[0]),
                          std::to_string(best_sizes[1]),
                          std::to_string(best_sizes[2]),
                          std::to_string(best_sizes[3]),
                          sim::fmtF(best_kb, 2), sim::fmtPct(best),
                          sim::fmtF(100.0 * best / best_kb, 3),
                          sim::fmtPct(best - homog)});
    }
    return out;
}

FigureOutput
tab06(FigureContext &ctx)
{
    return heterogeneous(ctx, {
        {"homogeneous", {2, 2, 2, 2}},
        {"SAP-heavy", {1, 4, 2, 1}}, // paper's 2048/512 winner shape
        {"CVP-heavy", {1, 1, 4, 2}}, // paper's 256 winner shape
        {"CAP-heavy", {1, 1, 2, 4}},
        {"LVP-heavy", {4, 2, 1, 1}},
        {"value-heavy", {4, 1, 2, 1}},
        {"no-LVP", {0, 4, 2, 2}},
    });
}

/** Table VI over every allocation in {0..6,8} eighths summing to the
 *  budget (the paper "swept the predictor table sizes
 *  independently"). */
FigureOutput
tab06Full(FigureContext &ctx)
{
    std::vector<Allocation> all;
    const unsigned parts[] = {0, 1, 2, 3, 4, 5, 6, 8};
    for (unsigned a : parts)
        for (unsigned b : parts)
            for (unsigned c : parts)
                for (unsigned d : parts)
                    if (a + b + c + d == 8)
                        all.emplace_back(std::to_string(a) +
                                             std::to_string(b) +
                                             std::to_string(c) +
                                             std::to_string(d) + "/8",
                                         std::array{a, b, c, d});
    auto out = heterogeneous(ctx, all);
    out.notes.push_back("full sweep: " + std::to_string(all.size()) +
                        " allocations per budget");
    return out;
}

FigureOutput
ablConfidence(FigureContext &ctx)
{
    FigureOutput out({"thresholds", "speedup", "coverage", "accuracy",
                      "flushes_per_kilo"});
    auto runner = ctx.runner();
    struct Variant
    {
        const char *name;
        unsigned lvp, sap, cvp, cap; ///< 0 = Table IV default
    };
    for (const Variant &v : {Variant{"paper (7/3/4/3)", 0, 0, 0, 0},
                             Variant{"lowered (5/2/3/2)", 5, 2, 3, 2},
                             Variant{"minimal (2/1/1/1)", 2, 1, 1, 1}}) {
        auto cfg = vp::CompositeConfig::homogeneous(1024);
        cfg.lvpConfThreshold = v.lvp;
        cfg.sapConfThreshold = v.sap;
        cfg.cvpConfThreshold = v.cvp;
        cfg.capConfThreshold = v.cap;
        const auto res = runner.run(v.name, compositeFactory(cfg));
        std::uint64_t flushes = 0, instrs = 0;
        for (const auto &r : res.rows) {
            flushes += r.withVp.vpFlushes;
            instrs += r.withVp.instructions;
        }
        auto row = withSca({v.name}, res);
        row.push_back(
            sim::fmtF(1000.0 * double(flushes) / double(instrs), 3));
        out.table.addRow(row);
    }
    return out;
}

FigureOutput
ablSelectionOrder(FigureContext &ctx)
{
    FigureOutput out({"order", "speedup", "coverage", "accuracy",
                      "addr_share_of_used"});
    auto runner = ctx.runner();
    // ComponentId values: LVP=0 SAP=1 CVP=2 CAP=3.
    const std::pair<const char *, std::array<std::uint8_t, 4>> orders[] = {
        {"paper: CVP,LVP,CAP,SAP", {2, 0, 3, 1}},
        {"value-agnostic-first: LVP,CVP,SAP,CAP", {0, 2, 1, 3}},
        {"address-first: CAP,SAP,CVP,LVP", {3, 1, 2, 0}},
        {"reverse: SAP,CAP,LVP,CVP", {1, 3, 0, 2}},
    };
    for (const auto &[name, order] : orders) {
        auto cfg = vp::CompositeConfig::homogeneous(1024);
        cfg.selectionOrder = order;
        const auto res = runner.run(name, compositeFactory(cfg));
        std::uint64_t addr_used = 0, used = 0;
        for (const auto &r : res.rows) {
            addr_used += r.withVp.usedByComponent[1] +
                         r.withVp.usedByComponent[3];
            used += r.withVp.predictionsUsed;
        }
        auto row = withSca({name}, res);
        row.push_back(sim::fmtPct(used ? double(addr_used) / used : 0.0));
        out.table.addRow(row);
    }
    return out;
}

FigureOutput
ablFlushCost(FigureContext &ctx)
{
    FigureOutput out({"fetch_to_execute", "baseline_ipc_geomean",
                      "composite_speedup", "accuracy"});
    auto rc = ctx.rc;
    for (Cycle depth : {8, 13, 20}) {
        rc.core.fetchToExecute = depth;
        const auto res = ctx.runner(rc).run(
            "composite",
            compositeFactory(scaleEpochs(
                vp::CompositeConfig::bestOf(1024), rc.maxInstrs)));
        std::vector<double> base_ipcs;
        for (const auto &r : res.rows)
            base_ipcs.push_back(r.base.ipc());
        out.table.addRow({std::to_string(depth),
                          sim::fmtF(geoMean(base_ipcs), 3),
                          sim::fmtPct(res.geomeanSpeedup()),
                          sim::fmtPct(res.meanAccuracy())});
    }
    return out;
}

FigureOutput
ablSharedStorage(FigureContext &ctx)
{
    FigureOutput out(
        {"config", "storageKB", "speedup", "coverage", "accuracy"});
    auto runner = ctx.runner();
    auto row = [&](const std::string &name, const sim::SuiteResult &res) {
        out.table.addRow(
            withSca({name, sim::fmtF(res.storageKB(), 2)}, res));
    };
    for (std::size_t total : {512, 1024, 2048}) {
        auto cfg = vp::CompositeConfig::homogeneous(total);
        row("inline-" + std::to_string(total),
            runner.run("inline", compositeFactory(cfg)));
        for (std::size_t pool : {std::size_t(0), total / 4}) {
            cfg.sharedValueArray = true;
            cfg.sharedPoolEntries = pool;
            row("shared" + (pool ? std::to_string(pool) : "auto") +
                    "-" + std::to_string(total),
                runner.run("shared", compositeFactory(cfg)));
        }
    }
    return out;
}

std::string
signedValue(double v, const char *unit)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%+.2f%s", v, unit);
    return buf;
}

} // anonymous namespace

const std::vector<Figure> &
figureTable()
{
    using enum ClaimOp;
    static const std::vector<Figure> table = {
        {"fig02", "Figure 2: load breakdown by pattern", "fig02", fig02},
        {"fig03", "Figure 3: component predictor scaling (64 - 4K entries)",
         "fig03", fig03},
        {"fig04", "Figure 4: component overlap at 1K entries each",
         "fig04", fig04},
        {"fig05",
         "Figure 5: composite vs best component (same total entries)",
         "fig05", fig05,
         {{"composite_beats_best_component", Greater, 0, "pp"}}},
        {"fig06", "Figure 6: accuracy monitor throttling", "fig06", fig06,
         {{"pcam64_tracks_pcam_inf_at_1k", Within, 0.10, "pp"},
          {"pcam64_at_least_plain_at_1k", AtLeast, 0, "pp"},
          {"mam_raises_accuracy_at_1k", Greater, 0, "pp"},
          {"mam_loses_speedup_at_1k", Less, 0, "pp", true}}},
        {"fig07",
         "Figure 7: prediction-count breakdown, train-all vs smart "
         "training",
         "fig07", fig07,
         {{"smart_cuts_multi_predicted", Less, 0, "pp"},
          {"smart_cuts_trained_per_load", Less, 0, ""}}},
        {"fig08", "Figure 8: smart training speedup", "fig08", fig08,
         {{"smart_training_loses_at_1k", Less, 0, "pp", true}}},
        {"fig09", "Figure 9: table fusion", "fig09", fig09,
         {{"fusion_helps_at_256", Greater, 0, "pp"}}},
        {"fig10", "Figure 10: best composite (all opts) vs best component",
         "fig10", fig10,
         {{"best_composite_beats_best_component", Greater, 0, "pp"}}},
        {"fig11", "Figure 11: composite vs EVES", "fig11", fig11,
         {{"composite_beats_eves32k_speedup", Greater, 0, "pp"},
          {"composite_beats_eves32k_coverage", Greater, 0, "pp"}}},
        {"fig12", "Figure 12: per-workload composite (9.6KB) vs EVES (32KB)",
         "fig12", fig12},
        {"tab05",
         "Table V: first predicted inner-loop iteration of Listing 1 "
         "(N=16), per outer iteration o",
         "tab05", tab05, {}, true, false},
        {"tab06", "Table VI: heterogeneous component sizing", "tab06",
         tab06},
        {"tab06_full",
         "Table VI: heterogeneous component sizing, every allocation",
         "tab06", tab06Full, {}, false},
        {"abl_confidence",
         "Ablation: confidence thresholds vs the 99% accuracy design "
         "target",
         "abl_confidence", ablConfidence},
        {"abl_selection_order",
         "Ablation: confident-selection priority order",
         "abl_selection_order", ablSelectionOrder},
        {"abl_flush_cost",
         "Ablation: front-end depth / flush cost sensitivity",
         "abl_flush_cost", ablFlushCost},
        {"abl_shared_storage", "Ablation: shared value array (LVP+CVP)",
         "abl_shared_storage", ablSharedStorage},
    };
    return table;
}

const Figure *
findFigure(std::string_view id)
{
    for (const auto &f : figureTable())
        if (id == f.id)
            return &f;
    return nullptr;
}

std::vector<Verdict>
checkClaims(const Figure &fig, const FigureOutput &out)
{
    std::vector<Verdict> verdicts;
    for (const Claim &c : fig.claims) {
        std::string line =
            std::string("claim ") + fig.id + "." + c.name + ": ";
        const auto it = out.measured.find(c.name);
        bool holds = false;
        if (it == out.measured.end()) {
            line += "not measured";
        } else {
            // Judged at the printed precision, so a verdict never
            // reads "+0.00pp > 0 — holds".
            const double v = std::round(it->second * 100.0) / 100.0;
            const std::string b =
                c.bound == 0 ? "0" : sim::fmtF(c.bound, 2) + c.unit;
            switch (c.op) {
            case ClaimOp::Greater:
                holds = v > c.bound;
                line += signedValue(v, c.unit) + " > " + b;
                break;
            case ClaimOp::AtLeast:
                holds = v >= c.bound;
                line += signedValue(v, c.unit) + " >= " + b;
                break;
            case ClaimOp::Less:
                holds = v < c.bound;
                line += signedValue(v, c.unit) + " < " + b;
                break;
            case ClaimOp::Within:
                holds = std::fabs(v) <= c.bound;
                line += "|" + signedValue(v, c.unit) + "| <= " + b;
                break;
            }
        }
        line += holds ? " — holds" : " — FAILS";
        if (c.pinned)
            line += " (pinned non-reproduction)";
        verdicts.push_back({line, holds});
    }
    return verdicts;
}

} // namespace bench
} // namespace lvpsim

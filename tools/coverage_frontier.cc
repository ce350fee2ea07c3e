/**
 * @file
 * Coverage-frontier sweep: composite predictor vs analytic ground
 * truth over a grid of kernel specs.
 *
 * For every spec in a fixed ≥64-point grid spanning the DSL's pattern
 * space (kind x working-set size x fill x mix x glue x phase
 * schedule), the tool:
 *
 *   1. generates the trace and its analytic TruthProfile
 *      (trace::computeTruthProfile),
 *   2. replays the ideal per-PC family oracles over the same ops
 *      (qa::measureIdealFamilies),
 *   3. runs the composite predictor through the cycle-level pipeline
 *      (sim::runTrace) and, separately, through the championship
 *      cvp.h harness (cvp1::runChampionship),
 *
 * and reports, per spec, the gap between the five-family oracle
 * union and the composite's realized pipeline coverage. Rows whose
 * gap exceeds the --gap threshold are flagged as breakdowns — specs
 * the predictor *could* capture (some ideal family does) but does
 * not. Two such breakdowns (a finite-context loop and a browser-like
 * phase mix) are pinned as regression tests in
 * tests/test_kernel_spec.cc.
 *
 * The championship column is deliberately secondary: the cvp.h
 * callback API has no memory access, so SAP-style predictions
 * (predictable address, value fetched from memory) can never be
 * realized there — stride workloads with distinct values score zero
 * by construction. The pipeline column is the predictor's real
 * capability; the spread between the two columns measures exactly
 * that API limitation.
 *
 * Output is deterministic JSON (sim::JsonValue preserves insertion
 * order); the schema is documented in docs/kernel_dsl.md.
 */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/composite.hh"
#include "qa/spec_oracles.hh"
#include "sim/cvp1.hh"
#include "sim/json.hh"
#include "sim/options.hh"
#include "sim/simulator.hh"
#include "trace/kernel_spec.hh"
#include "trace/spec_truth.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

/**
 * The sweep grid: canonical-ish spec texts covering every pattern
 * kind, several working-set decades, both fill modes, all three mix
 * strategies, the glue variants, weights, and multi-phase schedules.
 */
std::vector<std::string>
buildGrid()
{
    std::vector<std::string> g;
    const auto n = [](std::uint64_t v) { return std::to_string(v); };

    // Working-set sweeps per kind, seq and rng fills.
    for (std::uint64_t w : {64u, 512u, 4096u, 32768u})
        for (const char *fill : {"", ",fill=rng"})
            g.push_back("[iters=" + n(w) + "]stride(wset=" + n(w) +
                        fill + ")");
    for (std::uint64_t p : {2u, 8u, 64u, 1024u})
        for (const char *fill : {"", ",fill=rng"})
            g.push_back("[iters=256]ctx(period=" + n(p) + fill + ")");
    for (std::uint64_t k : {2u, 16u, 256u, 4096u})
        for (const char *fill : {"", ",fill=rng"})
            g.push_back("[iters=256]pick(k=" + n(k) + fill + ")");
    for (std::uint64_t w : {48u, 256u, 1024u, 4096u})
        for (const char *ord : {"", ",order=shuffle"})
            g.push_back("[iters=" + n(w) + "]chase(wset=" + n(w) +
                        ord + ")");
    g.push_back("[iters=256]const()");
    g.push_back("[iters=256]const(),const(v=0x42,glue=xor)");

    // Mix strategies over two-stream phases.
    for (const char *mix : {"", ",mix=rr", ",mix=rand"})
        for (std::uint64_t w : {256u, 4096u}) {
            g.push_back("[iters=" + n(w) + mix + "]stride(wset=" +
                        n(w) + "),pick(k=64)");
            g.push_back("[iters=256" + std::string(mix) +
                        "]ctx(period=32),const(v=0x7777)");
        }

    // Glue variants (dependent-op flavor between loads).
    for (const char *glue : {"xor", "fadd", "none"}) {
        g.push_back("[iters=512]stride(wset=512,glue=" +
                    std::string(glue) + ")");
        g.push_back("[iters=256]ctx(period=16,glue=" +
                    std::string(glue) + ")");
        g.push_back("[iters=256]pick(k=32,glue=" + std::string(glue) +
                    ")");
    }

    // 32-bit loads and weighted (unrolled) streams.
    g.push_back("[iters=512]stride(wset=512,esz=4)");
    g.push_back("[iters=256]ctx(period=64,esz=4)");
    g.push_back("[iters=256]pick(k=256,esz=4)");
    g.push_back("[iters=256]const()*4");
    g.push_back("[iters=128]stride(wset=512,step=16)*4");
    g.push_back("[iters=256]pick(k=16)*8");

    // Phase schedules: regime changes the predictor must relearn.
    g.push_back("[iters=512]stride(wset=512);"
                "[iters=256]pick(k=256,fill=rng)");
    g.push_back("[iters=256]const();[iters=256]ctx(period=64)");
    g.push_back("[iters=96]chase(wset=48);[iters=512]stride(wset=512)");
    g.push_back("[iters=256]pick(k=2);[]pick(k=4096,fill=rng)");
    g.push_back("[iters=256]ctx(period=4);[iters=256]ctx(period=1024)");
    g.push_back("[iters=512]stride(wset=512,fill=rng);"
                "[]chase(wset=256,order=shuffle)");

    // Browser/JS-engine-like phase mixes: property lookups over a
    // large hash-shaped table (pick, rng fill) interleaved with
    // DOM-style pointer walks (chase), punctuated by GC-sweep
    // strides and inline-cache-hit bursts (const / short ctx).
    g.push_back("[iters=256,mix=rr]pick(k=512,fill=rng),"
                "chase(wset=256);[iters=512]stride(wset=4096)");
    g.push_back("[iters=96,mix=rand]ctx(period=8),"
                "pick(k=1024,fill=rng);"
                "[iters=128]chase(wset=128,order=shuffle);"
                "[iters=256]const(v=0x1)");
    g.push_back("[iters=128]stride(wset=1024,esz=4),const()*2;"
                "[iters=128,mix=rr]pick(k=64),ctx(period=32)");
    return g;
}

sim::JsonValue
familyJson(double hits, std::uint64_t loads)
{
    return sim::JsonValue(trace::truthFrac(hits, loads));
}

/** --gap: a finite fraction >= 0; anything else exits 2. */
double
parseGapOrExit(const char *text)
{
    double v = 0.0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0.0) {
        std::fprintf(stderr,
                     "bad --gap value '%s' (want a finite fraction "
                     ">= 0)\n",
                     text);
        std::exit(2);
    }
    return v;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--instrs N] [--seed N] [--gap F] [--limit N]\n"
        "          [--json FILE]\n"
        "Sweep the kernel-spec grid and report the oracle-union vs\n"
        "composite coverage gap per spec (docs/kernel_dsl.md).\n",
        argv0);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::size_t instrs = 30000;
    std::uint64_t seed = 1;
    double gapThreshold = 0.25;
    std::size_t limit = 0; // 0 = whole grid
    std::string jsonPath;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs an argument\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--instrs") {
            instrs = sim::parsePositiveCountOrExit("--instrs",
                                                   need("--instrs"));
        } else if (a == "--seed") {
            seed = sim::parseCountOrExit("--seed", need("--seed"));
        } else if (a == "--gap") {
            gapThreshold = parseGapOrExit(need("--gap"));
        } else if (a == "--limit") {
            limit = sim::parseCountOrExit("--limit", need("--limit"));
        } else if (a == "--json") {
            jsonPath = need("--json");
        } else {
            return usage(argv[0]);
        }
    }

    std::vector<std::string> grid = buildGrid();
    lvp_assert(grid.size() >= 64,
               "frontier grid must span at least 64 specs");
    if (limit && grid.size() > limit)
        grid.resize(limit);

    sim::JsonValue doc = sim::JsonValue::object();
    doc.set("schema", "lvpsim-coverage-frontier-v1");
    doc.set("instrs", std::uint64_t(instrs));
    doc.set("seed", seed);
    doc.set("gap_threshold", gapThreshold);

    sim::JsonValue rows = sim::JsonValue::array();
    std::size_t breakdowns = 0;
    double maxGap = -1.0;
    std::string maxGapSpec;

    for (const std::string &text : grid) {
        std::string err;
        const trace::KernelSpec spec =
            trace::parseKernelSpec(text, &err);
        lvp_assert(err.empty(), "grid spec rejected");
        const std::string canon = trace::printKernelSpec(spec);

        const auto ops = trace::generateWorkload(canon, instrs, seed);
        const auto truth =
            trace::computeTruthProfile(spec, instrs, seed);
        const auto fam = qa::measureIdealFamilies(ops);

        auto cfg = vp::CompositeConfig::bestOf(1024);
        cfg.epochInstrs = 5000;

        // Primary: the cycle-level pipeline, where SAP can fetch the
        // value at its predicted address.
        sim::RunConfig rc;
        rc.maxInstrs = instrs;
        rc.traceSeed = seed;
        vp::CompositePredictor pipePred(cfg);
        const auto ps = sim::runTrace(ops, &pipePred, rc);

        // Secondary: the same design through the cvp.h callbacks.
        vp::CompositePredictor champPred(cfg);
        cvp1::PipelineVpAdapter adapter(champPred);
        const auto cs = cvp1::runChampionship(ops, adapter);

        const double gap = fam.unionFrac() - ps.coverage();
        const bool breakdown =
            gap >= gapThreshold && fam.loads >= 100;

        sim::JsonValue row = sim::JsonValue::object();
        row.set("spec", canon);
        row.set("ops", std::uint64_t(ops.size()));
        row.set("loads", fam.loads);

        sim::JsonValue t = sim::JsonValue::object();
        t.set("lvp", familyJson(truth.total.lvp.hits,
                                truth.total.loads));
        t.set("sap", familyJson(truth.total.sap.hits,
                                truth.total.loads));
        t.set("ctx", familyJson(truth.total.ctx.hits,
                                truth.total.loads));
        t.set("cap", familyJson(truth.total.cap.hits,
                                truth.total.loads));
        t.set("best", familyJson(truth.total.bestHits(),
                                 truth.total.loads));
        row.set("truth", std::move(t));

        sim::JsonValue m = sim::JsonValue::object();
        m.set("lvp", familyJson(double(fam.lvp), fam.loads));
        m.set("sap", familyJson(double(fam.sap), fam.loads));
        m.set("ctx1", familyJson(double(fam.ctx1), fam.loads));
        m.set("ctx8", familyJson(double(fam.ctx8), fam.loads));
        m.set("cap1", familyJson(double(fam.cap1), fam.loads));
        m.set("union", fam.unionFrac());
        row.set("measured", std::move(m));

        sim::JsonValue c = sim::JsonValue::object();
        c.set("coverage", ps.coverage());
        c.set("accuracy", ps.accuracy());
        c.set("correct", ps.predictionsCorrect);
        c.set("wrong", ps.predictionsWrong);
        c.set("eligible", ps.eligibleLoads);
        row.set("composite", std::move(c));

        sim::JsonValue ch = sim::JsonValue::object();
        ch.set("coverage", cs.coverage());
        ch.set("accuracy", cs.accuracy());
        ch.set("predicted", cs.predicted);
        ch.set("correct", cs.correct);
        row.set("championship", std::move(ch));

        row.set("gap", gap);
        row.set("breakdown", breakdown);
        rows.push(std::move(row));

        if (breakdown)
            ++breakdowns;
        if (gap > maxGap) {
            maxGap = gap;
            maxGapSpec = canon;
        }
    }
    doc.set("rows", std::move(rows));

    sim::JsonValue summary = sim::JsonValue::object();
    summary.set("specs", std::uint64_t(grid.size()));
    summary.set("breakdowns", std::uint64_t(breakdowns));
    summary.set("max_gap", maxGap);
    summary.set("max_gap_spec", maxGapSpec);
    doc.set("summary", std::move(summary));

    if (jsonPath.empty()) {
        doc.dump(std::cout);
        std::cout << "\n";
    } else {
        std::ofstream os(jsonPath);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         jsonPath.c_str());
            return 1;
        }
        doc.dump(os);
        os << "\n";
        std::fprintf(stderr,
                     "%zu specs, %zu breakdowns, max gap %.3f (%s)\n",
                     grid.size(), breakdowns, maxGap,
                     maxGapSpec.c_str());
    }
    return 0;
}

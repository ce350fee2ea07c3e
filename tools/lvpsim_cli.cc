/**
 * @file
 * lvpsim command-line driver: run any workload against any predictor
 * configuration without writing code.
 *
 *   lvpsim_cli --list
 *   lvpsim_cli --workload pointer_chase --predictor composite \
 *              --entries 1024 --am pc --smart --fusion
 *   lvpsim_cli --workload stream_sum --predictor sap --entries 512
 *   lvpsim_cli --workload hash_probe --classify
 *   lvpsim_cli --suite --jobs 8 --json results.json
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "core/composite.hh"
#include "core/eves.hh"
#include "core/oracle.hh"
#include "sim/checkpoint_store.hh"
#include "sim/cvp1.hh"
#include "sim/experiment.hh"
#include "sim/options.hh"
#include "sim/parallel_executor.hh"
#include "sim/results_json.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "sim/tableio.hh"
#include "trace/trace_io.hh"
#include "trace/trace_spec.hh"
#include "trace/workloads.hh"

using namespace lvpsim;

namespace
{

/// Largest --entries budget: 256x the largest any figure sweeps
/// (4096), and far below what would exhaust memory allocating tables.
constexpr std::uint64_t kMaxEntries = std::uint64_t(1) << 20;

struct CliOptions
{
    std::string workload = "memset_loop";
    std::string predictor = "composite";
    std::size_t entries = 1024;
    std::optional<std::size_t> instrs; ///< unset = LVPSIM_INSTRS
    std::optional<std::size_t> warmup; ///< unset = LVPSIM_WARMUP
    std::size_t sampleK = 0;
    std::size_t intervalLen = 0; ///< 0 = unset (the flag rejects 0)
    std::uint64_t progress = 0;
    std::string am = "none";
    bool smart = false;
    bool fusion = false;
    bool classify = false;
    bool list = false;
    bool verbose = false;
    std::uint64_t seed = 1;
    std::string saveTrace;
    std::string saveCvp;
    bool championship = false;
    bool suite = false;
    std::size_t jobs = 1;
    std::string jsonPath;
    std::string storeDir; ///< --store; "" = env / default resolution
    bool storeSet = false;
    /// unset = LVPSIM_STORE_MAX_BYTES; 0 = unlimited
    std::optional<std::uint64_t> storeMaxBytes;
};

void
usage()
{
    std::cout <<
        "lvpsim_cli - load value prediction simulator driver\n\n"
        "  --list                 list available workloads\n"
        "  --workload <name>      workload to run\n"
        "  --predictor <p>        none|composite|lvp|sap|cvp|cap|\n"
        "                         eves8k|eves32k|evesinf\n"
        "  --entries <n>          total predictor entries "
        "(at most 1048576)\n"
        "  --instrs <n>           instructions (default "
        "LVPSIM_INSTRS or 150000)\n"
        "  --warmup <n>           warmup instructions before "
        "measurement (VP disabled;\n"
        "                         default LVPSIM_WARMUP or 0)\n"
        "  --sample <k>           sampled simulation "
        "(docs/sampling.md): simulate only\n"
        "                         k representative intervals and "
        "extrapolate\n"
        "  --interval-len <n>     sampling interval length in "
        "instructions\n"
        "                         (default 100000, at most the "
        "measured length)\n"
        "  --progress <n>         print a progress line every n "
        "committed\n"
        "                         instructions (stderr; default "
        "off)\n"
        "  --am none|m|pc|pcinf   accuracy monitor (composite only)\n"
        "  --smart                enable smart training\n"
        "  --fusion               enable table fusion\n"
        "  --classify             print the oracle load-pattern "
        "breakdown and exit\n"
        "  --suite                run the whole workload suite "
        "(LVPSIM_SUITE) with the\n"
        "                         configured predictor vs the no-VP "
        "baseline\n"
        "  --jobs <n|auto>        worker threads for --suite "
        "(default 1; auto = cores)\n"
        "  --json <file>          write results in the schema of "
        "docs/results_schema.md\n"
        "  --store <dir|off>      persistent checkpoint store "
        "(docs/performance.md;\n"
        "                         default LVPSIM_STORE, else "
        "~/.cache/lvpsim)\n"
        "  --store-max-bytes <n>  LRU size budget for --store "
        "(default\n"
        "                         LVPSIM_STORE_MAX_BYTES or "
        "unlimited)\n"
        "  --seed <n>             trace seed\n"
        "  --save-trace <file>    write the workload trace (.lvpt)\n"
        "  --save-cvp <file>      export the trace in CVP-1 format\n"
        "                         (.gz suffix = gzip-compressed)\n"
        "  --championship         score the predictor through the "
        "CVP-1\n"
        "                         championship API instead of the "
        "pipeline\n"
        "                         (adds predictor 'tagged-lvp')\n"
        "  --verbose              dump full run statistics\n\n"
        "  --workload also accepts trace specs: NAME (synthetic "
        "kernel),\n"
        "  lvpt:PATH, cvp:PATH (see docs/traces.md), and kernel "
        "specs like\n"
        "  'synth:[iters=100]stride(wset=400),const(v=0x42)' "
        "(see docs/kernel_dsl.md)\n";
}

bool
parse(int argc, char **argv, CliOptions &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << what << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        auto count = [&](const char *what) {
            return sim::parseCountOrExit(what, next(what));
        };
        if (a == "--list")
            o.list = true;
        else if (a == "--workload")
            o.workload = next("--workload");
        else if (a == "--predictor")
            o.predictor = next("--predictor");
        else if (a == "--entries") {
            const std::uint64_t n = count("--entries");
            if (n > kMaxEntries) {
                std::cerr << "bad --entries value '" << n
                          << "' (limit is " << kMaxEntries << ")\n";
                std::exit(2);
            }
            o.entries = std::size_t(n);
        }
        else if (a == "--instrs")
            o.instrs = std::size_t(
                sim::parsePositiveCountOrExit("--instrs", next("--instrs")));
        else if (a == "--warmup")
            o.warmup = std::size_t(count("--warmup"));
        else if (a == "--sample")
            o.sampleK = std::size_t(count("--sample"));
        else if (a == "--interval-len")
            o.intervalLen = std::size_t(sim::parsePositiveCountOrExit(
                "--interval-len", next("--interval-len")));
        else if (a == "--progress")
            o.progress = count("--progress");
        else if (a == "--am")
            o.am = next("--am");
        else if (a == "--smart")
            o.smart = true;
        else if (a == "--fusion")
            o.fusion = true;
        else if (a == "--classify")
            o.classify = true;
        else if (a == "--suite")
            o.suite = true;
        else if (a == "--jobs") {
            const std::string v = next("--jobs");
            if (!sim::ParallelExecutor::parseJobs(v, o.jobs)) {
                std::cerr << "bad --jobs value '" << v
                          << "' (want a count or 'auto')\n";
                std::exit(2);
            }
        } else if (a == "--json")
            o.jsonPath = next("--json");
        else if (a == "--store") {
            o.storeDir = next("--store");
            o.storeSet = true;
        } else if (a == "--store-max-bytes")
            o.storeMaxBytes = count("--store-max-bytes");
        else if (a == "--seed")
            o.seed = count("--seed");
        else if (a == "--save-trace")
            o.saveTrace = next("--save-trace");
        else if (a == "--save-cvp")
            o.saveCvp = next("--save-cvp");
        else if (a == "--championship")
            o.championship = true;
        else if (a == "--verbose")
            o.verbose = true;
        else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            std::cerr << "unknown option '" << a << "'\n";
            return false;
        }
    }
    return true;
}

std::unique_ptr<pipe::LoadValuePredictor>
makePredictor(const CliOptions &o, std::size_t instrs)
{
    if (o.predictor == "none")
        return std::make_unique<pipe::NullPredictor>();
    if (o.predictor == "lvp")
        return vp::makeSinglePredictor(pipe::ComponentId::LVP,
                                       o.entries);
    if (o.predictor == "sap")
        return vp::makeSinglePredictor(pipe::ComponentId::SAP,
                                       o.entries);
    if (o.predictor == "cvp")
        return vp::makeSinglePredictor(pipe::ComponentId::CVP,
                                       o.entries);
    if (o.predictor == "cap")
        return vp::makeSinglePredictor(pipe::ComponentId::CAP,
                                       o.entries);
    if (o.predictor == "eves8k")
        return std::make_unique<vp::EvesPredictor>(
            vp::EvesConfig::small8k());
    if (o.predictor == "eves32k")
        return std::make_unique<vp::EvesPredictor>(
            vp::EvesConfig::large32k());
    if (o.predictor == "evesinf")
        return std::make_unique<vp::EvesPredictor>(
            vp::EvesConfig::infinite());
    if (o.predictor == "composite") {
        vp::CompositeConfig cfg =
            vp::CompositeConfig::homogeneous(o.entries);
        if (o.am == "m")
            cfg.am = vp::AmKind::MAm;
        else if (o.am == "pc")
            cfg.am = vp::AmKind::PcAm;
        else if (o.am == "pcinf")
            cfg.am = vp::AmKind::PcAmInfinite;
        cfg.smartTraining = o.smart;
        cfg.tableFusion = o.fusion;
        cfg.epochInstrs = std::max<std::size_t>(2000, instrs / 40);
        return std::make_unique<vp::CompositePredictor>(cfg);
    }
    std::cerr << "unknown predictor '" << o.predictor << "'\n";
    std::exit(2);
}

/** Write a results document; false (after complaining) on error. */
bool
emitJson(const CliOptions &o, const sim::RunConfig &rc,
         const std::vector<sim::SuiteResult> &suites,
         const std::string &suite_name)
{
    sim::ReportMeta meta;
    meta.jobs = o.jobs;
    meta.maxInstrs = rc.maxInstrs;
    meta.warmupInstrs = rc.warmupInstrs;
    meta.traceSeed = rc.traceSeed;
    meta.sampleK = rc.sampleK;
    meta.intervalLen = rc.sampleK ? rc.sampleIntervalLen : 0;
    meta.progressInstrs = o.progress;
    meta.suite = suite_name;
    const auto &store = sim::CheckpointStore::instance();
    meta.storeHits = store.hits();
    meta.storeMisses = store.misses();
    meta.storeSeconds = store.seconds();
    std::string err;
    if (!sim::writeResultsFile(o.jsonPath, suites, meta, &err)) {
        std::cerr << err << "\n";
        return false;
    }
    std::cout << "results: " << o.jsonPath << "\n";
    return true;
}

/** --suite: the full workload suite, baseline vs configured
 *  predictor, optionally fanned out over --jobs workers. */
int
runSuite(const CliOptions &o, const sim::RunConfig &rc)
{
    const auto workloads = sim::suiteFromEnv();
    sim::SuiteRunner runner(workloads, rc, o.jobs);
    const auto res = runner.run(
        o.predictor, [&] { return makePredictor(o, rc.maxInstrs); });

    sim::TextTable t(
        {"workload", "base_ipc", "vp_ipc", "speedup", "coverage",
         "accuracy"});
    for (const auto &r : res.rows)
        t.addRow({r.workload, sim::fmtF(r.base.ipc()),
                  sim::fmtF(r.withVp.ipc()),
                  sim::fmtPct(r.speedup()),
                  sim::fmtPct(r.coverage()),
                  sim::fmtPct(r.accuracy())});
    t.print(std::cout);
    std::cout << "suite:      " << workloads.size()
              << " workloads x " << rc.maxInstrs
              << " instructions, jobs " << o.jobs;
    if (rc.warmupInstrs)
        std::cout << ", warmup " << rc.warmupInstrs;
    if (rc.sampleK)
        std::cout << ", sampled " << rc.sampleK << "x"
                  << rc.sampleIntervalLen;
    std::cout << "\n"
              << "predictor:  " << o.predictor << " ("
              << res.storageKB() << " KB)\n"
              << "geomean speedup: "
              << sim::fmtPct(res.geomeanSpeedup())
              << "   mean coverage: "
              << sim::fmtPct(res.meanCoverage())
              << "   mean accuracy: "
              << sim::fmtPct(res.meanAccuracy()) << "\n"
              << "wall clock: " << sim::fmtF(res.wallSeconds)
              << "s\n";
    if (!o.jsonPath.empty() &&
        !emitJson(o, rc, {res},
                  std::getenv("LVPSIM_SUITE") ? std::getenv("LVPSIM_SUITE")
                                              : "full"))
        return 2;
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    CliOptions o;
    if (!parse(argc, argv, o)) {
        usage();
        return 2;
    }

    if (o.list) {
        for (const auto &info :
             trace::WorkloadRegistry::instance().all())
            std::cout << "  " << info.name << "  -  "
                      << info.description << "\n";
        return 0;
    }
    sim::RunConfig rc;
    rc.maxInstrs = o.instrs ? *o.instrs : sim::instrsFromEnv(150000);
    rc.warmupInstrs = o.warmup ? *o.warmup : sim::warmupFromEnv();
    sim::checkTraceLengthOrExit(rc);
    rc.traceSeed = o.seed;
    rc.sampleK = o.sampleK;
    if (o.intervalLen)
        rc.sampleIntervalLen = o.intervalLen;
    // An interval longer than the measured region is the whole
    // region; the plan line and the JSON report the length it runs.
    if (rc.sampleK)
        rc.sampleIntervalLen =
            std::min(rc.sampleIntervalLen, rc.maxInstrs);
    if (rc.sampleK && rc.warmupInstrs) {
        std::cerr << "--sample replaces --warmup with functional "
                     "fast-forward; use one or the other\n";
        return 2;
    }
    sim::setProgressReportEvery(o.progress);

    // Point the process-wide checkpoint store (docs/performance.md):
    // --store wins, then $LVPSIM_STORE, then ~/.cache/lvpsim; "off"
    // disables. An unusable directory silently disables.
    {
        std::uint64_t budget = 0;
        if (o.storeMaxBytes)
            budget = *o.storeMaxBytes;
        else if (const char *e = std::getenv("LVPSIM_STORE_MAX_BYTES"))
            budget = sim::parseCountOrExit("LVPSIM_STORE_MAX_BYTES", e);
        sim::CheckpointStore::instance().configure(
            sim::CheckpointStore::resolveDir(
                o.storeSet ? o.storeDir : ""),
            budget);
    }

    if (o.suite)
        return runSuite(o, rc);

    // --workload is a trace spec (docs/traces.md). Probe it here so
    // an unknown kernel, a bad kernel spec or an unreadable file
    // exits 2 with the loader's message (TraceCache would fatal()
    // instead); a one-instruction budget keeps the probe cheap.
    {
        std::string err;
        if (!trace::loadTrace(o.workload, 1, rc.traceSeed, &err)) {
            std::cerr << err << "\n";
            return 2;
        }
    }

    // The trace covers the warmup region plus the measured region
    // (runTrace simulates the warmup inline); file-backed traces are
    // truncated to that budget.
    const auto ops = sim::TraceCache::instance().get(
        o.workload, sim::traceLength(rc), rc.traceSeed);

    if (!o.saveTrace.empty()) {
        if (!trace::saveTraceFile(o.saveTrace, *ops)) {
            std::cerr << "cannot write " << o.saveTrace << "\n";
            return 2;
        }
        std::cout << "wrote " << ops->size() << " ops to "
                  << o.saveTrace << "\n";
    }
    if (!o.saveCvp.empty()) {
        const bool gz = o.saveCvp.size() > 3 &&
                        o.saveCvp.compare(o.saveCvp.size() - 3, 3,
                                          ".gz") == 0;
        std::string err;
        if (!trace::saveCvpTraceFile(o.saveCvp, *ops, gz, &err)) {
            std::cerr << "cannot write " << o.saveCvp << ": " << err
                      << "\n";
            return 2;
        }
        std::cout << "wrote " << ops->size() << " ops to "
                  << o.saveCvp << " (CVP-1"
                  << (gz ? ", gzip" : "") << ")\n";
    }

    if (o.classify) {
        const auto b = vp::classifyLoadPatterns(*ops);
        std::cout << o.workload << ": pattern1 " << 100.0 * b.frac1()
                  << "%  pattern2 " << 100.0 * b.frac2()
                  << "%  pattern3 " << 100.0 * b.frac3() << "%  ("
                  << b.total() << " loads)\n";
        return 0;
    }

    if (o.championship) {
        // Score through the cvp.h-style callback contract instead of
        // the cycle-level pipeline.
        std::unique_ptr<pipe::LoadValuePredictor> inner;
        std::unique_ptr<cvp1::Predictor> champ;
        if (o.predictor == "tagged-lvp") {
            champ = std::make_unique<cvp1::TaggedLvpChampion>();
        } else {
            inner = makePredictor(o, rc.maxInstrs);
            champ = std::make_unique<cvp1::PipelineVpAdapter>(*inner);
        }
        const auto cs = cvp1::runChampionship(*ops, *champ);
        std::cout << "workload:    " << o.workload << "\n"
                  << "predictor:   " << champ->name()
                  << " (championship API, "
                  << double(champ->storageBits()) / 8192.0
                  << " KB)\n"
                  << "instructions: " << cs.instructions << "\n"
                  << "eligible loads: " << cs.eligibleLoads << "\n"
                  << "predicted:   " << cs.predicted << "  (correct "
                  << cs.correct << ", incorrect " << cs.incorrect
                  << ")\n"
                  << "coverage:    " << 100.0 * cs.coverage()
                  << "%\n"
                  << "accuracy:    " << 100.0 * cs.accuracy()
                  << "%\n";
        return 0;
    }

    // Sampled single runs go through the sampled driver; full runs
    // keep the historical inline path.
    pipe::NullPredictor none;
    auto pred = makePredictor(o, rc.maxInstrs);
    pipe::SimStats base, s;
    sim::SampledRunResult sampledVp;
    if (rc.sampleK) {
        base = sim::runSampledWorkload(o.workload, &none, rc).stats;
        sampledVp = sim::runSampledWorkload(o.workload, pred.get(), rc);
        s = sampledVp.stats;
    } else {
        base = sim::runTrace(*ops, &none, rc);
        s = sim::runTrace(*ops, pred.get(), rc);
    }

    std::cout << "workload:   " << o.workload << "  ("
              << rc.maxInstrs << " instructions)\n";
    if (rc.sampleK)
        std::cout << "sampled:    " << sampledVp.sampleK
                  << " intervals x " << sampledVp.intervalLen
                  << " instructions, error bound "
                  << 100.0 * sampledVp.sampleError << "%\n";
    std::cout << "predictor:  " << pred->name() << " ("
              << double(pred->storageBits()) / 8192.0 << " KB)\n"
              << "baseline:   " << base.ipc() << " IPC\n"
              << "predicted:  " << s.ipc() << " IPC\n"
              << "speedup:    "
              << 100.0 * (s.ipc() / base.ipc() - 1.0) << "%\n"
              << "coverage:   " << 100.0 * s.coverage() << "%\n"
              << "accuracy:   " << 100.0 * s.accuracy() << "%\n";
    if (o.verbose) {
        std::cout << "\n";
        s.dump(std::cout);
        pred->dumpStats(std::cout);
    }
    if (!o.jsonPath.empty()) {
        sim::SuiteResult res;
        res.label = pred->name();
        res.storageBits = pred->storageBits();
        sim::WorkloadResult row;
        row.workload = o.workload;
        const auto tinfo = sim::TraceCache::instance().info(
            o.workload, sim::traceLength(rc), rc.traceSeed);
        row.traceFormat = tinfo.format;
        row.traceInstructions = tinfo.trace->size();
        row.base = base;
        row.withVp = s;
        if (rc.sampleK) {
            row.sampled = true;
            row.sampleError = sampledVp.sampleError;
            row.sampleK = sampledVp.sampleK;
            row.intervalLength = sampledVp.intervalLen;
            row.checkpointSeconds = sampledVp.checkpointSeconds;
        }
        row.storageBits = pred->storageBits();
        res.rows.push_back(std::move(row));
        if (!emitJson(o, rc, {res}, "single"))
            return 2;
    }
    return 0;
}

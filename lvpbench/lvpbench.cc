/**
 * @file
 * lvpbench: the benchmark of record for lvpsim (see README.md in this
 * directory for the workloads, the metric map and the reference).
 *
 *   lvpbench --workload W --seed N --seconds S --trace 0|1
 *            [--scale full|smoke] [--reference FILE]
 *   lvpbench --regen --seeds N[,N...] [--scale full|smoke]
 *            [--reference FILE]
 *
 * Run from the repository root: FILE defaults to
 * lvpbench/reference.json, and the store and span files go under
 * .bench_build/work. After one untimed warm-up job, a run repeats the
 * workload's measured job until --seconds have passed (at least three
 * times), checks every simulated (config, kernel) result, and prints
 * each metric by name and unit, then one JSON object as the last line
 * of standard output. Every job runs its configurations through
 * sim::SuiteRunner::run, one call per configuration. With --trace 1,
 * repetitions alternate untraced / traced and the metrics are the
 * per-layer ones. --regen rewrites FILE's entries for the given seeds
 * at one scale, keeping every other entry.
 *
 * Exit status: 0 after a complete run (correctness is reported in
 * the JSON), 2 on a usage error, 1 when the run cannot proceed.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "branch/ittage.hh"
#include "branch/ras.hh"
#include "branch/tage.hh"
#include "common/binio.hh"
#include "core/composite.hh"
#include "memory/hierarchy.hh"
#include "pipeline/core.hh"
#include "sim/checkpoint_store.hh"
#include "sim/experiment.hh"
#include "sim/json.hh"
#include "sim/parallel_executor.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

#include "spans.hh"

using namespace lvpsim;
namespace lb = lvpbench;
namespace fs = std::filesystem;

namespace
{

const char *const kWorkloads[] = {"suite_detailed", "sweep_warm",
                                  "sampled_cold"};

// ------------------------------------------------------------------
// Strict argument parsing: digits only, no sign, no junk, no overflow.

bool
parseCount(std::string_view s, std::uint64_t lo, std::uint64_t hi,
           std::uint64_t &out)
{
    if (s.empty() || s.size() > 20)
        return false;
    for (char c : s)
        if (c < '0' || c > '9')
            return false;
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || p != s.data() + s.size() || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

[[noreturn]] void
usage(const std::string &msg)
{
    std::cerr << "lvpbench: " << msg << "\n"
              << "usage: lvpbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--scale full|smoke] [--reference FILE]\n"
                 "       lvpbench --regen --seeds N[,N...] "
                 "[--scale full|smoke] [--reference FILE]\n";
    std::exit(2);
}

/** Store directories and span files go here, under the build tree. */
const fs::path kWorkDir = ".bench_build/work";

/** Executor workers per job: at most four, never more than the host. */
std::size_t
benchJobs()
{
    return std::min<std::size_t>(4, sim::ParallelExecutor::hardwareJobs());
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::string scale = "full";
    std::string reference = "lvpbench/reference.json";
    bool regen = false;
    std::vector<std::uint64_t> regenSeeds;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool seen[7] = {};
    auto once = [&](int slot, const std::string &flag) {
        if (seen[slot])
            usage("duplicate " + flag);
        seen[slot] = true;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--regen") {
            once(6, a);
            o.regen = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for '" + a + "'");
        const std::string v = argv[++i];
        if (a == "--workload") {
            once(0, a);
            if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                          v) == std::end(kWorkloads))
                usage("unknown workload '" + v + "'");
            o.workload = v;
        } else if (a == "--seed") {
            once(1, a);
            if (!parseCount(v, 0, UINT64_MAX, o.seed))
                usage("bad --seed '" + v + "'");
        } else if (a == "--seconds") {
            once(2, a);
            if (!parseCount(v, 1, 3600, o.seconds))
                usage("bad --seconds '" + v + "' (want 1..3600)");
        } else if (a == "--trace") {
            once(3, a);
            if (v != "0" && v != "1")
                usage("bad --trace '" + v + "' (want 0 or 1)");
            o.trace = v == "1";
        } else if (a == "--scale") {
            once(4, a);
            if (v != "full" && v != "smoke")
                usage("bad --scale '" + v + "' (want full or smoke)");
            o.scale = v;
        } else if (a == "--reference") {
            once(5, a);
            if (v.empty())
                usage("empty --reference");
            o.reference = v;
        } else if (a == "--seeds") {
            if (!o.regenSeeds.empty())
                usage("duplicate --seeds");
            std::string_view rest = v;
            while (true) {
                const auto comma = rest.find(',');
                std::uint64_t s = 0;
                if (!parseCount(rest.substr(0, comma), 0, UINT64_MAX, s))
                    usage("bad --seeds '" + v + "'");
                o.regenSeeds.push_back(s);
                if (comma == std::string_view::npos)
                    break;
                rest.remove_prefix(comma + 1);
            }
        } else {
            usage("unknown option '" + a + "'");
        }
    }
    if (o.regen) {
        if (o.regenSeeds.empty())
            usage("--regen needs --seeds");
        if (seen[0] || seen[1] || seen[2] || seen[3])
            usage("--regen takes no --workload/--seed/--seconds/--trace");
    } else if (!seen[0] || !seen[1] || !seen[2] || !seen[3]) {
        usage("--workload, --seed, --seconds and --trace are required");
    } else if (!o.regenSeeds.empty()) {
        usage("--seeds is only valid with --regen");
    }
    return o;
}

// ------------------------------------------------------------------
// Workload definitions.

/** Sizes of one benchmark scale; `smoke` keeps self-tests short. */
struct Scale
{
    std::vector<std::string> kernels;
    std::size_t detailedInstrs; ///< suite_detailed measured region
    std::size_t sweepInstrs;    ///< sweep_warm measured window
    std::size_t sweepWarmup;    ///< sweep_warm VP-off warmup
    std::size_t sampledInstrs;  ///< sampled_cold trace length
    std::size_t sampleK;
    std::size_t intervalLen;
    std::size_t replayOps;      ///< per-kernel prefix for replays
};

Scale
makeScale(const std::string &name)
{
    if (name == "smoke")
        return {trace::smokeWorkloadNames(), 20000, 2000, 16000,
                100000, 4, 5000, 20000};
    return {trace::allWorkloadNames(), 150000, 10000, 160000,
            2000000, 8, 10000, 200000};
}

/** A predictor configuration; `none` is the no-VP baseline. */
struct Config
{
    std::string name;
    sim::PredictorFactory make;
};

/** The paper's best composite: PC-AM + smart training + fusion. */
Config
bestComposite(std::size_t instrs)
{
    auto cfg = vp::CompositeConfig::bestOf(1024);
    cfg.epochInstrs = std::max<std::size_t>(2000, instrs / 40);
    return {"composite", [cfg] {
                return std::make_unique<vp::CompositePredictor>(cfg);
            }};
}

/** The sampled-vs-full gate's predictor: PC-AM + fusion, 2048. */
Config
tunedComposite(std::size_t instrs)
{
    auto cfg = vp::CompositeConfig::homogeneous(2048);
    cfg.am = vp::AmKind::PcAm;
    cfg.tableFusion = true;
    cfg.epochInstrs = std::max<std::size_t>(2000, instrs / 40);
    return {"tuned", [cfg] {
                return std::make_unique<vp::CompositePredictor>(cfg);
            }};
}

/** fig03-shaped grid: each component at three table sizes. */
std::vector<Config>
sweepGrid()
{
    std::vector<Config> out;
    for (pipe::ComponentId id :
         {pipe::ComponentId::LVP, pipe::ComponentId::SAP,
          pipe::ComponentId::CVP, pipe::ComponentId::CAP}) {
        for (std::size_t n : {256, 1024, 4096}) {
            out.push_back({std::string(pipe::componentName(id)) + "-" +
                               std::to_string(n),
                           [id, n] { return vp::makeSinglePredictor(id, n); }});
        }
    }
    return out;
}

/** One simulated (config, kernel) result. */
struct Row
{
    std::string config; ///< "none" for the no-VP baseline
    std::string kernel;
    pipe::SimStats stats{};
    double sampleError = 0.0;
    bool simulated = true; ///< false: served from the store
    std::string error;     ///< set when the simulation threw
};

std::uint64_t
checksum(const pipe::SimStats &s)
{
    std::uint64_t h = kFnvOffsetBasis;
    pipe::forEachCounter(s, [&](std::string_view, std::uint64_t v) {
        h = fnv1a64(&v, sizeof v, h);
    });
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

// ------------------------------------------------------------------
// Per-repetition measurement.

struct Rep
{
    std::vector<Row> rows;
    bool traced = false;
    double wall = 0.0, cpu = 0.0, rssMb = 0.0;
    std::uint64_t storeHits = 0, storeMisses = 0;
    std::map<std::string, double> layers; ///< traced reps only
};

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/** Reset the kernel's peak-RSS mark (VmHWM), where supported. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS in MB since the last reset (VmHWM), else ru_maxrss. */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return double(std::stoull(line.substr(6))) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

void
clearMemos()
{
    sim::TraceCache::instance().clear();
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    sim::PlanCache::instance().clear();
}

std::uint64_t
dirBytes(const fs::path &dir)
{
    std::uint64_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            n += e.file_size(ec);
    return n;
}

/** Everything one workload needs, shared by setup, job and checks. */
class Bench
{
  public:
    Bench(const std::string &scaleName, const std::string &workload,
          std::uint64_t seed, std::size_t jobs)
        : workload(workload), seed(seed), jobs(jobs),
          scale(makeScale(scaleName)),
          storeDir(kWorkDir / (workload + "-store"))
    {
        K = scale.kernels.size();
        if (workload == "suite_detailed") {
            rc.maxInstrs = scale.detailedInstrs;
            configs = {bestComposite(rc.maxInstrs)};
        } else if (workload == "sweep_warm") {
            rc.maxInstrs = scale.sweepInstrs;
            rc.warmupInstrs = scale.sweepWarmup;
            configs = sweepGrid();
        } else {
            rc.maxInstrs = scale.sampledInstrs;
            rc.sampleK = scale.sampleK;
            rc.sampleIntervalLen = scale.intervalLen;
            configs = {tunedComposite(rc.maxInstrs)};
        }
        rc.traceSeed = seed;
    }

    /** Bring the process to the workload's starting state: drop the
     *  in-memory memos, then remove, empty or fill the store. Returns
     *  the time taken (setup_s). */
    double setup(bool useStore);
    Rep job(std::uint32_t runId, bool traced);
    /** Full-detail composite IPC per kernel (sampled_cold check). */
    std::vector<double> fullDetailIpc();

    const std::string workload;
    const std::uint64_t seed;
    const std::size_t jobs;
    const Scale scale;
    const fs::path storeDir;
    std::size_t K = 0;
    sim::RunConfig rc;
    /** One SuiteRunner::run each; the no-VP baseline comes with them. */
    std::vector<Config> configs;

  private:
    /** @p cfg's factory; decorated, under @p phase, when traced. */
    sim::PredictorFactory factory(const Config &cfg, std::uint64_t phase);
    /** Traced jobs only: fetch, in timed calls, what SuiteRunner::run
     *  would fetch first for each kernel, with the same keys. */
    void prefill(std::vector<sim::TraceCache::TracePtr> &traces);
    void addLayers(Rep &rep, std::uint32_t runId,
                   const std::vector<sim::TraceCache::TracePtr> &traces,
                   double intervals, std::uint64_t ffwd0,
                   std::uint64_t storeBytes0);

    lb::CallCounts calls;
};

double
Bench::setup(bool useStore)
{
    const double t0 = lb::now();
    clearMemos();
    // Hand the previous job's freed memory back to the kernel so each
    // job's peak RSS starts from the same baseline.
    malloc_trim(0);
    auto &store = sim::CheckpointStore::instance();
    std::error_code ec;
    fs::remove_all(storeDir, ec);
    if (!useStore) {
        store.configure("", 0);
        return lb::now() - t0;
    }
    store.configure(storeDir.string(), 0);
    if (!store.enabled())
        throw std::runtime_error("store directory " + storeDir.string() +
                                 " is unusable");
    if (workload == "sweep_warm") {
        // Fill: one warmup checkpoint and one baseline per kernel,
        // then drop the in-memory memos so the job starts like a
        // fresh process that finds only the store.
        sim::ParallelExecutor fill(jobs);
        fill.parallelFor(
            K, [&](std::size_t i) {
                sim::BaselineCache::instance().get(scale.kernels[i], rc);
            });
        clearMemos();
        malloc_trim(0);
    }
    return lb::now() - t0;
}

sim::PredictorFactory
Bench::factory(const Config &cfg, std::uint64_t phase)
{
    if (!lb::Tracer::instance().enabled())
        return cfg.make;
    return [this, make = cfg.make, phase] {
        return std::make_unique<lb::TimedPredictor>(make, phase, calls);
    };
}

void
Bench::prefill(std::vector<sim::TraceCache::TracePtr> &traces)
{
    // SuiteRunner::run's own calls then hit these memos, so trace
    // synthesis, checkpoint fetches and sample plans show as their
    // own spans instead of inside the baseline phase or a row.
    sim::ParallelExecutor pool(jobs);
    pool.parallelFor(
        K,
        [&](std::size_t k) {
            const std::string &w = scale.kernels[k];
            {
                lb::Scope s("trace.get");
                traces[k] = sim::TraceCache::instance()
                                .info(w, rc.maxInstrs + rc.warmupInstrs,
                                      rc.traceSeed)
                                .trace;
            }
            if (rc.warmupInstrs) {
                lb::Scope s("sim.ckpt_get");
                sim::CheckpointCache::instance().get(w, rc);
            }
            if (rc.sampleK) {
                lb::Scope s("sim.plan");
                sim::PlanCache::instance().get(w, rc);
            }
        },
        [](std::size_t i) { return i; });
}

Rep
Bench::job(std::uint32_t runId, bool traced)
{
    auto &tracer = lb::Tracer::instance();
    tracer.setRun(runId);
    tracer.enable(traced);
    calls.predict = calls.train = calls.abandon = 0;
    auto &store = sim::CheckpointStore::instance();
    store.resetCounters();
    const std::uint64_t ffwd0 =
        sim::CheckpointCache::instance().ffInstructions();
    const std::uint64_t storeBytes0 = traced ? dirBytes(storeDir) : 0;

    const std::size_t C = configs.size();
    std::vector<sim::SuiteResult> suites(C);
    std::vector<std::string> errors(C);
    std::vector<sim::TraceCache::TracePtr> traces(K);
    Rep rep;
    rep.traced = traced;
    resetPeakRss();
    const double cpu0 = cpuSeconds();
    const double t0 = lb::now();
    {
        lb::Scope jobSpan("job");
        if (traced)
            prefill(traces);
        sim::SuiteRunner runner(scale.kernels, rc, jobs);
        for (std::size_t c = 0; c < C; ++c) {
            lb::Scope phase("suite.run");
            try {
                suites[c] =
                    runner.run(configs[c].name,
                               factory(configs[c], phase.id()));
            } catch (const std::exception &e) {
                errors[c] = e.what();
            }
        }
    }
    const double t1 = lb::now();
    rep.wall = t1 - t0;
    rep.cpu = cpuSeconds() - cpu0;
    rep.storeHits = store.hits();
    rep.storeMisses = store.misses();
    rep.rssMb = peakRssMb();

    // Rows: every configuration's VP results, then the no-VP
    // baselines (the first run computed or fetched them).
    double intervals = 0.0;
    for (std::size_t c = 0; c <= C; ++c) {
        const std::size_t from = c < C ? c : 0;
        for (std::size_t k = 0; k < K; ++k) {
            Row row;
            row.config = c < C ? configs[c].name : "none";
            row.kernel = scale.kernels[k];
            row.simulated = c < C || workload != "sweep_warm";
            row.error = errors[from];
            if (row.error.empty()) {
                const sim::WorkloadResult &r = suites[from].rows[k];
                row.stats = c < C ? r.withVp : r.base;
                row.sampleError = c < C ? r.sampleError : 0.0;
                if (c < C && r.sampled)
                    intervals += r.checkpointSeconds;
            }
            rep.rows.push_back(std::move(row));
        }
    }
    if (traced)
        addLayers(rep, runId, traces, intervals, ffwd0, storeBytes0);
    tracer.enable(false);
    return rep;
}

/** Value at which exactly ten task times lie above it (max if few). */
double
tailOf(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    if (xs.empty())
        return 0.0;
    return xs.size() > 10 ? xs[xs.size() - 11] : xs.back();
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t m = xs.size() / 2;
    return xs.size() % 2 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

double
geomeanIpc(const std::vector<double> &ipcs)
{
    double logSum = 0.0;
    for (double x : ipcs)
        logSum += std::log(x);
    return ipcs.empty() ? 0.0 : std::exp(logSum / double(ipcs.size()));
}

/** Keeps the replays' results observable so they are not elided. */
volatile std::uint64_t replaySink = 0;

/** Standalone replay of the data-memory stream (memory layer). */
double
memoryReplayNs(const std::vector<const std::vector<trace::MicroOp> *> &ts,
               const pipe::CoreConfig &core, std::size_t cap)
{
    std::uint64_t accesses = 0;
    std::uint64_t sink = 0;
    const auto t0 = lb::Clock::now();
    for (const auto *ops : ts) {
        mem::MemoryHierarchy h(core.memory);
        const std::size_t n = std::min(cap, ops->size());
        for (std::size_t i = 0; i < n; ++i) {
            const auto &op = (*ops)[i];
            if (op.isLoad() || op.isStore()) {
                sink += h.dataAccess(op.pc, op.effAddr, op.isStore()).latency;
                ++accesses;
            }
        }
    }
    const double s = std::chrono::duration<double>(lb::Clock::now() - t0).count();
    replaySink = sink;
    return accesses ? 1e9 * s / double(accesses) : 0.0;
}

/** Standalone TAGE / ITTAGE / RAS replay of the control stream. */
double
branchReplayNs(const std::vector<const std::vector<trace::MicroOp> *> &ts,
               const pipe::CoreConfig &core, std::size_t cap)
{
    std::uint64_t branches = 0;
    std::uint64_t sink = 0;
    const auto t0 = lb::Clock::now();
    for (const auto *ops : ts) {
        branch::Tage tage(core.tage, core.seed ^ 0x7a9e);
        branch::Ittage ittage(core.ittage, core.seed ^ 0x177a9e);
        branch::ReturnAddressStack ras(core.rasDepth);
        const std::size_t n = std::min(cap, ops->size());
        for (std::size_t i = 0; i < n; ++i) {
            const auto &op = (*ops)[i];
            switch (op.cls) {
              case trace::OpClass::Branch:
                sink += tage.predict(op.pc);
                tage.update(op.pc, op.taken);
                break;
              case trace::OpClass::Call:
                ras.push(op.pc + 4);
                tage.updateHistoryOnly(op.pc, true);
                break;
              case trace::OpClass::Ret:
                sink += ras.pop();
                tage.updateHistoryOnly(op.pc, true);
                break;
              case trace::OpClass::IndirBr:
                sink += ittage.predict(op.pc);
                ittage.update(op.pc, op.target);
                tage.updateHistoryOnly(op.pc, true);
                break;
              default:
                continue;
            }
            ++branches;
        }
    }
    const double s = std::chrono::duration<double>(lb::Clock::now() - t0).count();
    replaySink = sink;
    return branches ? 1e9 * s / double(branches) : 0.0;
}

void
Bench::addLayers(Rep &rep, std::uint32_t runId,
                 const std::vector<sim::TraceCache::TracePtr> &traces,
                 double intervals, std::uint64_t ffwd0,
                 std::uint64_t storeBytes0)
{
    auto &L = rep.layers;
    const auto spans = lb::Tracer::instance().spansOf(runId);
    std::map<std::uint64_t, const lb::Span *> byId;
    for (const auto &s : spans)
        byId[s.id] = &s;
    std::map<std::string, double> total, children;
    for (const auto &s : spans) {
        total[s.name] += s.end - s.start;
        const auto p = byId.find(s.parent);
        if (p != byId.end())
            children[p->second->name] += s.end - s.start;
    }

    std::uint64_t genOps = 0;
    for (const auto &t : traces)
        genOps += t ? t->size() : 0;
    L["trace.gen_s"] = total["trace.get"];
    L["trace.gen_ops"] = double(genOps);
    L["trace.bytes"] = double(genOps * sizeof(trace::MicroOp));

    L["core.predict_calls"] = double(calls.predict.load());
    L["core.train_calls"] = double(calls.train.load());
    L["core.abandon_calls"] = double(calls.abandon.load());
    L["core.predict_s"] = total["core.predict"];
    L["core.train_s"] = total["core.train"];
    L["core.ctor_s"] = total["core.ctor"];

    double instrs = 0, vpInstrs = 0, cycles = 0, squashed = 0, vpFl = 0,
           memFl = 0;
    double l1 = 0, l2 = 0, mispred = 0, eligible = 0, used = 0,
           correct = 0;
    std::vector<double> ipcs;
    for (const Row &r : rep.rows) {
        if (r.stats.ipc() > 0.0)
            ipcs.push_back(r.stats.ipc());
        if (r.config != "none") {
            eligible += double(r.stats.eligibleLoads);
            used += double(r.stats.predictionsUsed);
            correct += double(r.stats.predictionsCorrect);
            vpInstrs += double(r.stats.instructions);
        }
        if (!r.simulated)
            continue;
        instrs += double(r.stats.instructions);
        cycles += double(r.stats.cycles);
        squashed += double(r.stats.squashedOps);
        vpFl += double(r.stats.vpFlushes);
        memFl += double(r.stats.memOrderFlushes);
        l1 += double(r.stats.l1dMisses);
        l2 += double(r.stats.l2Misses);
        mispred += double(r.stats.branchMispredicts);
    }
    L["core.coverage"] = eligible > 0 ? used / eligible : 0.0;
    L["core.accuracy"] = used > 0 ? correct / used : 0.0;

    const double runSelf = total["pipeline.run"] - children["pipeline.run"];
    L["pipeline.run_s"] = runSelf;
    L["pipeline.instructions"] = instrs;
    L["pipeline.cycles"] = cycles;
    L["pipeline.ns_per_instr"] =
        vpInstrs > 0 ? 1e9 * runSelf / vpInstrs : 0.0;
    L["pipeline.ipc_geomean"] = geomeanIpc(ipcs);
    L["pipeline.squashed_ops"] = squashed;
    L["pipeline.vp_flushes"] = vpFl;
    L["pipeline.mem_order_flushes"] = memFl;
    L["pipeline.restore_s"] = total["pipeline.restore"];
    L["pipeline.ffwd_instrs"] = double(
        sim::CheckpointCache::instance().ffInstructions() - ffwd0);

    L["memory.l1d_misses"] = l1;
    L["memory.l2_misses"] = l2;
    L["branch.mispredicts"] = mispred;
    std::vector<const std::vector<trace::MicroOp> *> ts;
    for (const auto &t : traces)
        if (t)
            ts.push_back(t.get());
    L["memory.replay_ns_per_access"] =
        memoryReplayNs(ts, rc.core, scale.replayOps);
    L["branch.replay_ns_per_branch"] =
        branchReplayNs(ts, rc.core, scale.replayOps);

    // Executor: the row tasks of each SuiteRunner::run call, over
    // that call's row phase (its first task start to its last task
    // end). Before the first row, run() fetches or computes the
    // baselines (ensureBaselines); that time is sim.baseline_s.
    struct Phase
    {
        double first = 1e300, last = -1e300;
        std::map<std::thread::id, double> lastEnd;
    };
    std::map<std::uint64_t, Phase> phases;
    std::vector<double> durMs;
    double busy = 0.0;
    for (const auto &t : spans) {
        if (std::string_view(t.name) != "exec.task")
            continue;
        busy += t.end - t.start;
        durMs.push_back(1e3 * (t.end - t.start));
        Phase &p = phases[t.parent];
        p.first = std::min(p.first, t.start);
        p.last = std::max(p.last, t.end);
        double &e = p.lastEnd[t.thread];
        e = std::max(e, t.end);
    }
    double capacity = 0.0, tail = 0.0, baseline = 0.0;
    for (const auto &[id, p] : phases) {
        capacity += double(jobs) * (p.last - p.first);
        double firstIdle = p.first;
        if (p.lastEnd.size() >= jobs) {
            firstIdle = p.last;
            for (const auto &[thread, end] : p.lastEnd)
                firstIdle = std::min(firstIdle, end);
        }
        tail += p.last - firstIdle;
        if (const auto run = byId.find(id); run != byId.end())
            baseline += p.first - run->second->start;
    }

    const auto &store = sim::CheckpointStore::instance();
    L["sim.baseline_s"] = baseline;
    L["sim.ckpt_get_s"] = total["sim.ckpt_get"];
    L["sim.store_hits"] = double(store.hits());
    L["sim.store_misses"] = double(store.misses());
    L["sim.store_s"] = store.seconds();
    L["sim.plan_s"] = total["sim.plan"];
    L["sim.intervals_s"] = intervals;
    const std::uint64_t bytes1 = dirBytes(storeDir);
    L["sim.store_write_bytes"] =
        double(bytes1 > storeBytes0 ? bytes1 - storeBytes0 : 0);

    L["sim.exec_tasks"] = double(durMs.size());
    L["sim.exec_busy_s"] = busy;
    L["sim.exec_idle_s"] = capacity - busy;
    L["sim.exec_utilization"] = capacity > 0 ? busy / capacity : 0.0;
    L["sim.exec_tail_s"] = tail;
    L["sim.task_p50_ms"] = median(durMs);
    L["sim.task_tail_ms"] = tailOf(durMs);
}

std::vector<double>
Bench::fullDetailIpc()
{
    clearMemos();
    sim::CheckpointStore::instance().configure("", 0);
    sim::RunConfig full = rc;
    full.sampleK = 0;
    std::vector<double> ipc(K, 0.0);
    sim::ParallelExecutor exec(jobs);
    exec.parallelFor(K, [&](std::size_t k) {
        auto ops = sim::TraceCache::instance().get(scale.kernels[k],
                                                   full.maxInstrs, seed);
        auto vp = configs[0].make();
        ipc[k] = sim::runTrace(*ops, vp.get(), full).ipc();
    });
    clearMemos();
    return ipc;
}

// ------------------------------------------------------------------
// Stored reference (reference.json; README.md describes the layout).

/** The reference entries for one (scale, seed), if stored. */
struct SeedReference
{
    std::map<std::string, std::string> checksums; ///< "config/kernel"
    std::map<std::string, double> fullIpc;        ///< sampled_cold
};

sim::JsonValue
readJsonFile(const std::string &path, bool mustExist)
{
    std::ifstream is(path);
    if (!is) {
        if (mustExist)
            throw std::runtime_error("cannot read reference " + path);
        return sim::JsonValue::object();
    }
    std::stringstream ss;
    ss << is.rdbuf();
    std::string err;
    sim::JsonValue doc = sim::parseJson(ss.str(), &err);
    if (!doc.isObject())
        throw std::runtime_error("bad reference " + path + ": " + err);
    return doc;
}

std::optional<SeedReference>
lookupReference(const sim::JsonValue &doc, const std::string &scale,
                std::uint64_t seed, const std::string &workload)
{
    const sim::JsonValue *s = doc.find("scales");
    s = s ? s->find(scale) : nullptr;
    s = s ? s->find(std::to_string(seed)) : nullptr;
    const sim::JsonValue *w = s ? s->find(workload) : nullptr;
    if (!w)
        return std::nullopt;
    SeedReference out;
    for (const auto &[k, v] : w->members())
        out.checksums[k] = v.asString();
    if (const sim::JsonValue *ipc = s->find("full_ipc"))
        for (const auto &[k, v] : ipc->members())
            out.fullIpc[k] = v.asDouble();
    return out;
}

/** Failures found by the checks; failed rows count per repetition. */
struct Verdict
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool ok = true;
    double ipcErrPct = 0.0;
    std::uint64_t outsideBound = 0; ///< sampled rows beyond their bound
};

Verdict
verify(Bench &b, const std::vector<Rep> &reps,
       const std::optional<SeedReference> &ref)
{
    Verdict v;
    const bool sampled = b.workload == "sampled_cold";
    std::vector<double> fullIpc;
    if (sampled) {
        if (ref && ref->fullIpc.size() == b.K) {
            for (const auto &k : b.scale.kernels)
                fullIpc.push_back(ref->fullIpc.at(k));
        } else {
            std::cerr << "lvpbench: no stored full-detail IPC for seed "
                      << b.seed << "; simulating it\n";
            fullIpc = b.fullDetailIpc();
        }
    }
    if (!ref)
        std::cerr << "lvpbench: seed " << b.seed
                  << " has no stored reference; checking that every "
                     "repetition reproduces the first\n";

    for (const Rep &rep : reps) {
        for (std::size_t i = 0; i < rep.rows.size(); ++i) {
            const Row &row = rep.rows[i];
            const std::string key = row.config + "/" + row.kernel;
            ++v.attempted;
            std::string why = row.error;
            const std::string got = hex(checksum(row.stats));
            if (why.empty() && ref) {
                const auto it = ref->checksums.find(key);
                if (it == ref->checksums.end())
                    why = "missing from reference";
                else if (it->second != got)
                    why = "checksum " + got + " != reference " + it->second;
            } else if (why.empty() &&
                       got != hex(checksum(reps[0].rows[i].stats))) {
                why = "differs from the first repetition";
            }
            if (!why.empty()) {
                ++v.failed;
                std::cerr << "FAILED " << b.workload << " " << key << ": "
                          << why << "\n";
            }
        }
    }
    v.ok = v.failed == 0;
    if (sampled) {
        // Each row's sample_error is a 95% bound plus a floor, so a
        // few rows outside it are expected and only counted; the
        // suite geomean must stay within the mean bound.
        std::vector<double> ipcs;
        double meanBound = 0.0;
        for (std::size_t k = 0; k < b.K; ++k) {
            const Row &r = reps[0].rows[k];
            const double err = std::abs(r.stats.ipc() - fullIpc[k]) /
                               fullIpc[k];
            if (!(err <= r.sampleError)) {
                ++v.outsideBound;
                std::cerr << "OUTSIDE BOUND sampled_cold " << r.kernel
                          << ": IPC error " << err << " > bound "
                          << r.sampleError << "\n";
            }
            ipcs.push_back(r.stats.ipc());
            meanBound += r.sampleError / double(b.K);
        }
        const double g = geomeanIpc(ipcs), gf = geomeanIpc(fullIpc);
        v.ipcErrPct = 100.0 * std::abs(g - gf) / gf;
        if (!(v.ipcErrPct <= 100.0 * meanBound)) {
            std::cerr << "FAILED sampled_cold: suite geomean IPC error "
                      << v.ipcErrPct << "% exceeds the mean bound "
                      << 100.0 * meanBound << "%\n";
            v.ok = false;
        }
    }
    for (const Rep &rep : reps) {
        if (b.workload == "sweep_warm" &&
            (rep.storeMisses != 0 || rep.storeHits == 0)) {
            std::cerr << "FAILED sweep_warm: the store served "
                      << rep.storeHits << " hits and " << rep.storeMisses
                      << " misses; every lookup must hit\n";
            v.ok = false;
        }
    }
    return v;
}

// ------------------------------------------------------------------
// Reporting.

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

std::string
number(double v)
{
    char buf[64];
    const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, p) : "0";
}

const char *
layerUnit(const std::string &name)
{
    static const std::pair<const char *, const char *> suffixes[] = {
        {"_s", "s"},         {"_ms", "ms"},        {"bytes", "B"},
        {"_pct", "%"},       {"ns_per_instr", "ns"},
        {"replay_ns_per_access", "ns"}, {"replay_ns_per_branch", "ns"},
        {"ipc_geomean", "instr/cycle"}, {"coverage", "ratio"},
        {"accuracy", "ratio"}, {"utilization", "ratio"}};
    for (const auto &[suf, unit] : suffixes) {
        const std::string_view n(name), s(suf);
        if (n.size() >= s.size() && n.substr(n.size() - s.size()) == s)
            return unit;
    }
    return "count";
}

void
printResult(const Verdict &v, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::cout << "metric " << m.name << " = " << number(m.value) << " "
                  << m.unit << "\n";
    std::cout << "{\"correct\": " << (v.ok ? "true" : "false")
              << ", \"attempted\": " << v.attempted
              << ", \"failed\": " << v.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << number(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
}

int
runBenchmark(const Options &o)
{
    const std::optional<SeedReference> ref = lookupReference(
        readJsonFile(o.reference, true), o.scale, o.seed, o.workload);
    fs::create_directories(kWorkDir);
    Bench b(o.scale, o.workload, o.seed, benchJobs());
    const bool useStore = o.workload != "suite_detailed";
    const std::size_t minReps = o.trace ? 4 : 3;

    // One untimed warm-up job: every measured set-up then tears down a
    // previous job, and no measured job pays first-use costs.
    b.setup(useStore);
    b.job(0, false);

    std::vector<Rep> reps;
    std::vector<double> setups;
    const double start = lb::now();
    while (reps.size() < minReps ||
           lb::now() - start < double(o.seconds)) {
        setups.push_back(b.setup(useStore));
        const auto i = std::uint32_t(reps.size());
        reps.push_back(b.job(i, o.trace && i % 2 == 1));
    }
    const Verdict v = verify(b, reps, ref);

    std::vector<double> wall, tracedWall, cpu, rss;
    std::map<std::string, std::vector<double>> layers;
    for (const Rep &r : reps) {
        (r.traced ? tracedWall : wall).push_back(r.wall);
        if (r.traced) {
            for (const auto &[k, x] : r.layers)
                layers[k].push_back(x);
            continue;
        }
        cpu.push_back(r.cpu);
        rss.push_back(r.rssMb);
    }
    double resultInstrs = 0;
    for (const Row &r : reps[0].rows)
        resultInstrs += double(r.stats.instructions);

    std::vector<Metric> metrics;
    if (!o.trace) {
        const double w = median(wall);
        metrics = {{"wall_s", "s", w},
                   {"kips", "kinstr/s", resultInstrs / 1e3 / w},
                   {"setup_s", "s", median(setups)},
                   {"cpu_s", "s", median(cpu)},
                   {"peak_rss_mb", "MB", median(rss)}};
    } else {
        for (const auto &[k, xs] : layers)
            metrics.push_back({k, layerUnit(k), median(xs)});
        metrics.push_back({"sim.ipc_err_pct", "%", v.ipcErrPct});
        metrics.push_back({"sim.rows_outside_bound", "count",
                           double(v.outsideBound)});
        metrics.push_back({"sim.trace_overhead_s", "s",
                           median(tracedWall) - median(wall)});
        const fs::path spans = kWorkDir /
                               ("spans-" + o.workload + "-seed" +
                                std::to_string(o.seed) + ".json");
        if (!lb::Tracer::instance().writeJson(spans.string()))
            std::cerr << "lvpbench: cannot write " << spans << "\n";
    }
    std::error_code ec;
    fs::remove_all(b.storeDir, ec);
    sim::CheckpointStore::instance().configure("", 0);
    std::cerr << "lvpbench: " << o.workload << " seed " << o.seed << ": "
              << reps.size() << " repetitions, " << v.failed << "/"
              << v.attempted << " failed; wall s:";
    for (const Rep &r : reps)
        std::cerr << " " << number(r.wall) << (r.traced ? "t" : "");
    std::cerr << "\n";
    printResult(v, metrics);
    return 0;
}

/** --regen: simulate each workload twice, compare, store checksums. */
int
regenerate(const Options &o)
{
    sim::JsonValue doc = readJsonFile(o.reference, false);
    fs::create_directories(kWorkDir);
    const sim::JsonValue *sp = doc.find("scales");
    sim::JsonValue scales = sp ? *sp : sim::JsonValue::object();
    const sim::JsonValue *cur = scales.find(o.scale);
    sim::JsonValue scaleDoc = cur ? *cur : sim::JsonValue::object();
    bool ok = true;
    for (std::uint64_t seed : o.regenSeeds) {
        sim::JsonValue seedDoc = sim::JsonValue::object();
        for (const char *w : kWorkloads) {
            // Reference path: one worker, no store. Measured path:
            // the benchmark's own job. They must agree exactly.
            Bench serial(o.scale, w, seed, 1);
            serial.setup(false);
            const Rep r0 = serial.job(0, false);
            Bench b(o.scale, w, seed, benchJobs());
            b.setup(std::string(w) != "suite_detailed");
            const Rep r1 = b.job(0, false);
            sim::JsonValue sums = sim::JsonValue::object();
            for (std::size_t i = 0; i < r1.rows.size(); ++i) {
                const Row &a = r0.rows[i], &c = r1.rows[i];
                const std::string key = c.config + "/" + c.kernel;
                if (!a.error.empty() || !c.error.empty() ||
                    checksum(a.stats) != checksum(c.stats)) {
                    std::cerr << "regen: " << w << " " << key
                              << " differs between the serial store-off "
                                 "run and the benchmark run "
                              << a.error << c.error << "\n";
                    ok = false;
                }
                sums.set(key, hex(checksum(c.stats)));
            }
            seedDoc.set(w, std::move(sums));
            if (std::string(w) == "sampled_cold") {
                const auto ipc = b.fullDetailIpc();
                sim::JsonValue ipcDoc = sim::JsonValue::object();
                for (std::size_t k = 0; k < b.K; ++k) {
                    ipcDoc.set(b.scale.kernels[k], ipc[k]);
                    const double err =
                        std::abs(r1.rows[k].stats.ipc() - ipc[k]) / ipc[k];
                    if (!(err <= r1.rows[k].sampleError))
                        std::cerr << "regen: warning: " << b.scale.kernels[k]
                                  << " sampled IPC error " << err
                                  << " exceeds its bound "
                                  << r1.rows[k].sampleError << "\n";
                }
                seedDoc.set("full_ipc", std::move(ipcDoc));
            }
            std::error_code ec;
            fs::remove_all(b.storeDir, ec);
            std::cerr << "regen: scale " << o.scale << " seed " << seed
                      << " " << w << " done\n";
        }
        scaleDoc.set(std::to_string(seed), std::move(seedDoc));
    }
    if (!ok)
        return 1;
    scales.set(o.scale, std::move(scaleDoc));
    doc.set("format", std::uint64_t(1));
    doc.set("checksum",
            "FNV-1a 64 over every pipe::SimStats counter in "
            "forEachCounter order, per config/kernel");
    doc.set("scales", std::move(scales));
    std::ofstream os(o.reference);
    doc.dump(os);
    os << "\n";
    if (!os) {
        std::cerr << "regen: cannot write " << o.reference << "\n";
        return 1;
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return o.regen ? regenerate(o) : runBenchmark(o);
    } catch (const std::exception &e) {
        std::cerr << "lvpbench: " << e.what() << "\n";
        return 1;
    }
}

/**
 * @file
 * The perf driver: one binary behind the committed speed records,
 * selected by --phase (docs/performance.md, "The perf driver", has
 * the flags, defaults and exit codes):
 *
 *   throughput  suite kIPS of no-VP + composite (BENCH_throughput.json)
 *   sampling    full vs cold- vs warm-sampled suite (BENCH_sampling.json)
 *   store       inline / cold / warm-memory / warm-disk sweep
 *               (BENCH_store.json)
 *   store-cold  one store phase per process, so tools/perf.sh can
 *   store-warm  time a fresh process and compare results_checksum
 *
 * A speedup is reported only when the self-checks hold: exit 3 when
 * results diverge or a warm phase rebuilds or misses the store, exit
 * 4 when a sampled result misses its own reported error bound.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/mathutils.hh"
#include "core/composite.hh"
#include "sim/checkpoint_store.hh"
#include "sim/json.hh"
#include "sim/options.hh"
#include "sim/parallel_executor.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "sim/tableio.hh"
#include "trace/workloads.hh"

#include "figures.hh"

using namespace lvpsim;

namespace
{

using Clock = sim::WallClock;
using sim::secondsSince;
using Fields = std::vector<std::pair<std::string, sim::JsonValue>>;

constexpr const char *kUsage =
    "perf_driver --phase throughput|sampling|store|store-cold|"
    "store-warm [--jobs N|auto] [--json FILE]\n"
    "  throughput: [--repeat N] [--warmup N]\n"
    "  sampling:   [--sample K] [--interval-len N]\n"
    "  store*:     --store DIR [--warmup N]\n"
    "env: LVPSIM_INSTRS, LVPSIM_WARMUP, LVPSIM_SUITE\n";

/** The flags each phase takes besides --phase, --jobs and --json. */
const std::map<std::string, std::set<std::string>> kPhaseFlags = {
    {"throughput", {"--repeat", "--warmup"}},
    {"sampling", {"--sample", "--interval-len"}},
    {"store", {"--store", "--warmup"}},
    {"store-cold", {"--store", "--warmup"}},
    {"store-warm", {"--store", "--warmup"}},
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << msg << "\n";
    std::exit(2);
}

struct Args
{
    std::string phase;
    std::size_t jobs = 1;
    std::string json;
    std::string store;
    std::map<std::string, std::size_t> counts; ///< count flags given

    std::size_t
    count(const std::string &flag, std::size_t fallback) const
    {
        const auto it = counts.find(flag);
        return it == counts.end() ? fallback : it->second;
    }
};

/** Parse and validate the whole command line; exits 2 on misuse. */
Args
parseArgs(int argc, char **argv)
{
    const std::set<std::string> known = {
        "--phase",  "--jobs",   "--json",   "--store",
        "--repeat", "--warmup", "--sample", "--interval-len"};
    Args a;
    std::set<std::string> given;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            std::cout << kUsage;
            std::exit(0);
        }
        if (!known.count(flag))
            usageError("unknown option '" + flag + "' (try --help)");
        if (i + 1 >= argc)
            usageError("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--phase") {
            a.phase = value;
        } else if (flag == "--json") {
            a.json = value;
        } else if (flag == "--jobs") {
            if (!sim::ParallelExecutor::parseJobs(value, a.jobs))
                usageError("bad --jobs value '" + value + "'");
        } else if (flag == "--store") {
            a.store = value;
            given.insert(flag);
        } else {
            const auto n = sim::parseCountOrExit(flag.c_str(), value);
            if (n == 0 && flag != "--warmup")
                usageError("bad " + flag + " value '0' (want > 0)");
            a.counts[flag] = std::size_t(n);
            given.insert(flag);
        }
    }
    const auto phase = kPhaseFlags.find(a.phase);
    if (phase == kPhaseFlags.end())
        usageError("bad --phase value '" + a.phase +
                   "' (want throughput|sampling|store|store-cold|"
                   "store-warm)");
    for (const auto &flag : given)
        if (!phase->second.count(flag))
            usageError(flag + " does not apply to --phase " + a.phase);
    if (phase->second.count("--store") && a.store.empty())
        usageError("missing --store DIR (the store is under test)");
    return a;
}

/** Drop every in-memory sim memo except the traces. */
void
clearSimCaches()
{
    sim::CheckpointCache::instance().clear();
    sim::BaselineCache::instance().clear();
    sim::PlanCache::instance().clear();
}

/** Synthesize every trace up front so no measured phase pays for it;
 *  returns each workload's synthesis seconds. */
std::vector<double>
synthesizeTraces(const std::vector<std::string> &workloads,
                 const sim::RunConfig &rc, std::size_t jobs)
{
    std::vector<double> seconds(workloads.size());
    sim::ParallelExecutor(jobs).parallelFor(
        workloads.size(), [&](std::size_t i) {
            const auto t0 = Clock::now();
            sim::TraceCache::instance().get(
                workloads[i], sim::traceLength(rc), rc.traceSeed);
            seconds[i] = secondsSince(t0);
        });
    return seconds;
}

/** True when every counter matches; otherwise names the first that
 *  differs. */
bool
sameCounters(const std::string &what, const pipe::SimStats &ref,
             const pipe::SimStats &got)
{
    if (pipe::statsEqual(ref, got))
        return true;
    std::vector<std::uint64_t> want;
    pipe::forEachCounter(ref, [&](std::string_view, std::uint64_t v) {
        want.push_back(v);
    });
    std::size_t i = 0;
    std::string first;
    pipe::forEachCounter(
        got, [&](std::string_view name, std::uint64_t v) {
            if (first.empty() && v != want[i])
                first = std::string(name) + " ref=" +
                        std::to_string(want[i]) +
                        " got=" + std::to_string(v);
            ++i;
        });
    std::cerr << "MISMATCH " << what << ": " << first << "\n";
    return false;
}

/** sameCounters over both pipelines of every row of two suite runs. */
bool
sameRows(const std::string &what, const sim::SuiteResult &ref,
         const sim::SuiteResult &got)
{
    bool ok = true;
    for (std::size_t w = 0; w < ref.rows.size(); ++w) {
        const std::string tag = what + "/" + ref.rows[w].workload;
        ok &= sameCounters(tag + "/base", ref.rows[w].base,
                           got.rows[w].base);
        ok &= sameCounters(tag, ref.rows[w].withVp,
                           got.rows[w].withVp);
    }
    return ok;
}

/** Median of the samples (mean of the middle two when even). */
double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

sim::JsonValue
object(const Fields &fields)
{
    sim::JsonValue o = sim::JsonValue::object();
    for (const auto &[key, value] : fields)
        o.set(key, value);
    return o;
}

/**
 * Write a BENCH_*.json document to --json (nothing without it): the
 * schema header, the run description every phase shares followed by
 * @p meta, then @p body. Returns the process exit code.
 */
int
writeJson(const Args &a, std::size_t instrs, Fields meta,
          const Fields &body)
{
    if (a.json.empty())
        return 0;
    const char *suite = std::getenv("LVPSIM_SUITE");
    meta.insert(meta.begin(),
                {{"bench", "perf_driver"},
                 {"phase", a.phase},
                 {"jobs", std::uint64_t(a.jobs)},
                 {"instructions", std::uint64_t(instrs)},
                 {"suite", suite ? suite : "full"}});
    Fields doc = {{"schema_version", std::uint64_t(1)},
                  {"tool", "lvpsim"},
                  {"meta", object(meta)}};
    doc.insert(doc.end(), body.begin(), body.end());
    std::ofstream os(a.json);
    if (!os) {
        std::cerr << "cannot write " << a.json << "\n";
        return 1;
    }
    object(doc).dump(os);
    os << "\n";
    std::cout << "results: " << a.json << "\n";
    return 0;
}

/** The core's deterministic work counts (pipe::CoreWork), as JSON
 *  keys after a row's timing keys. */
void
appendWork(Fields &fields, const pipe::CoreWork &w)
{
    fields.insert(fields.end(),
                  {{"rob_seq_lookups", w.robSeqLookups},
                   {"iq_visits", w.iqVisits},
                   {"dep_checks", w.depChecks},
                   {"completion_visits", w.completionVisits}});
}

int
runThroughput(const Args &a)
{
    const std::size_t instrs = sim::instrsFromEnv(150000);
    const std::size_t repeat = a.count("--repeat", 1);
    sim::RunConfig rc;
    rc.maxInstrs = instrs;
    rc.warmupInstrs = a.count("--warmup", sim::warmupFromEnv());
    const auto workloads = sim::suiteFromEnv();
    const auto vp_cfg = bench::scaleEpochs(
        vp::CompositeConfig::homogeneous(1024), instrs);
    std::cout << "simulator throughput: " << workloads.size()
              << " workloads x " << instrs
              << " instructions (no-VP + composite), median of "
              << repeat << " passes, jobs=" << a.jobs << ", warmup "
              << rc.warmupInstrs << "\n";

    // Trace synthesis is timed on its own: every suite run pays it,
    // but it is not the cycle loop.
    const auto gen_t0 = Clock::now();
    const auto gen_seconds = synthesizeTraces(workloads, rc, a.jobs);
    const double gen_wall = secondsSince(gen_t0);

    // The median pass is kept: robust to load spikes either way,
    // unlike the minimum, which favours lucky scheduling. Simulation
    // is deterministic, so every pass counts the same work.
    struct Row
    {
        std::uint64_t instructions = 0; ///< both pipelines
        std::uint64_t cycles = 0;       ///< both pipelines
        pipe::CoreWork work;            ///< both pipelines
        std::vector<double> passSeconds;
    };
    std::vector<Row> rows(workloads.size());
    std::vector<double> pass_walls;
    sim::ParallelExecutor pool(a.jobs);
    for (std::size_t pass = 0; pass < repeat; ++pass) {
        const auto t0 = Clock::now();
        pool.parallelFor(workloads.size(), [&](std::size_t i) {
            auto ops = sim::TraceCache::instance().get(
                workloads[i], sim::traceLength(rc), rc.traceSeed);
            pipe::CoreWork work;
            const auto w0 = Clock::now();
            const auto base = sim::runTrace(*ops, nullptr, rc, &work);
            vp::CompositePredictor pred(vp_cfg);
            const auto with_vp = sim::runTrace(*ops, &pred, rc, &work);
            rows[i].passSeconds.push_back(secondsSince(w0));
            rows[i].instructions = base.instructions + with_vp.instructions;
            rows[i].cycles = base.cycles + with_vp.cycles;
            rows[i].work = work;
        });
        pass_walls.push_back(secondsSince(t0));
    }
    // The aggregate uses the whole phase's wall clock: the per-row
    // sum at --jobs 1, the real end-to-end rate with more jobs.
    const double sim_wall = median(pass_walls);

    std::uint64_t total_instrs = 0, total_cycles = 0;
    pipe::CoreWork total_work;
    double sum_sim_seconds = 0.0;
    sim::JsonValue rows_json = sim::JsonValue::array();
    sim::TextTable t({"workload", "instrs", "gen_ms", "sim_ms", "kips"});
    auto addRow = [&](const std::string &name, std::uint64_t n,
                      double gen_s, double sim_s) {
        const double kips = ratio(double(n) / 1000.0, sim_s);
        t.addRow({name, std::to_string(n), sim::fmtF(gen_s * 1e3, 2),
                  sim::fmtF(sim_s * 1e3, 2), sim::fmtF(kips, 1)});
        return kips;
    };
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const Row &r = rows[i];
        const double sim_s = median(r.passSeconds);
        total_instrs += r.instructions;
        total_cycles += r.cycles;
        total_work += r.work;
        sum_sim_seconds += sim_s;
        Fields row = {{"workload", workloads[i]},
                      {"instructions", r.instructions},
                      {"cycles", r.cycles},
                      {"gen_seconds", gen_seconds[i]},
                      {"sim_seconds", sim_s},
                      {"kips", addRow(workloads[i], r.instructions,
                                      gen_seconds[i], sim_s)}};
        appendWork(row, r.work);
        rows_json.push(object(row));
    }
    const double agg_kips =
        addRow("AGGREGATE", total_instrs, gen_wall, sim_wall);
    t.print(std::cout);
    t.printCsv(std::cout, "throughput");
    const auto per_instr = [&](std::uint64_t n) {
        return sim::fmtF(ratio(double(n), double(total_instrs)), 2);
    };
    std::cout << "core work per instruction: rob_seq_lookups "
              << per_instr(total_work.robSeqLookups) << ", iq_visits "
              << per_instr(total_work.iqVisits) << ", dep_checks "
              << per_instr(total_work.depChecks)
              << ", completion_visits "
              << per_instr(total_work.completionVisits) << "\n";
    Fields aggregate = {{"total_instructions", total_instrs},
                        {"total_cycles", total_cycles},
                        {"gen_wall_seconds", gen_wall},
                        {"sim_wall_seconds", sim_wall},
                        {"sim_seconds_sum", sum_sim_seconds},
                        {"kips", agg_kips}};
    appendWork(aggregate, total_work);

    return writeJson(
        a, instrs,
        {{"warmup_instructions", std::uint64_t(rc.warmupInstrs)},
         {"repeat", std::uint64_t(repeat)},
         {"statistic", "median"}},
        {{"workloads", rows_json}, {"aggregate", object(aggregate)}});
}

double
geomeanIpc(const sim::SuiteResult &res)
{
    std::vector<double> ipcs;
    for (const auto &row : res.rows)
        ipcs.push_back(row.withVp.ipc());
    return geoMean(ipcs);
}

int
runSampling(const Args &a)
{
    const std::size_t instrs = sim::instrsFromEnv(20000);
    sim::RunConfig rc_full;
    rc_full.maxInstrs = instrs;
    sim::RunConfig rc_sampled = rc_full;
    rc_sampled.sampleK = a.count("--sample", 8);
    rc_sampled.sampleIntervalLen = a.count(
        "--interval-len", std::max<std::size_t>(2000, instrs / 200));
    const auto workloads = sim::suiteFromEnv();
    const std::size_t W = workloads.size();
    const auto factory = bench::compositeFactory(
        bench::tunedComposite(2048, instrs));
    std::cout << "sampling throughput: " << W << " workloads, "
              << instrs << " instructions each, sample "
              << rc_sampled.sampleK << " x "
              << rc_sampled.sampleIntervalLen << ", jobs=" << a.jobs
              << "\n";
    synthesizeTraces(workloads, rc_full, a.jobs);

    auto timedRun = [&](const char *what, const sim::RunConfig &rc,
                        double &wall) {
        const auto t0 = Clock::now();
        auto res = sim::SuiteRunner(workloads, rc, a.jobs)
                       .run("composite", factory);
        wall = secondsSince(t0);
        std::cout << std::left << std::setw(27) << what
                  << sim::fmtF(wall, 3) << " s\n";
        return res;
    };
    double full_wall = 0.0, cold_wall = 0.0, warm_wall = 0.0;
    clearSimCaches();
    const auto full = timedRun("full (every instruction):", rc_full,
                               full_wall);
    // Cold: pays interval profiling, planning and checkpoints.
    clearSimCaches();
    const auto cold =
        timedRun("sampled (cold caches):", rc_sampled, cold_wall);
    double checkpoint_seconds = 0.0;
    for (const auto &row : cold.rows)
        checkpoint_seconds += row.checkpointSeconds;
    // Warm: every plan and interval checkpoint must be a hit.
    const auto plans0 = sim::PlanCache::instance().generations();
    const auto ckpts0 = sim::CheckpointCache::instance().generations();
    sim::BaselineCache::instance().clear();
    const auto warm =
        timedRun("sampled (warm caches):", rc_sampled, warm_wall);

    const bool rebuilt =
        sim::PlanCache::instance().generations() != plans0 ||
        sim::CheckpointCache::instance().generations() != ckpts0;
    if (rebuilt)
        std::cerr << "warm phase rebuilt a sample plan or interval "
                     "checkpoint that should have been cached\n";
    if (!sameRows("warm", cold, warm) || rebuilt) {
        std::cerr << "sampled results are not reproducible; "
                     "refusing to report a speedup\n";
        return 3;
    }

    double max_ipc_err = 0.0, max_acc_err = 0.0, mean_bound = 0.0;
    std::size_t out_of_bounds = 0;
    for (std::size_t w = 0; w < W; ++w) {
        const auto &f = full.rows[w].withVp;
        const auto &s = cold.rows[w].withVp;
        const double bound = cold.rows[w].sampleError;
        const double ipc_err = std::abs(s.ipc() - f.ipc()) / f.ipc();
        // Accuracy is a fraction of used predictions; below ~0.5%
        // coverage it is a ratio of near-zero counters on both
        // sides and rounding noise swamps the comparison, so only
        // rows where the predictor meaningfully fires are checked.
        const double acc_err =
            f.predictionsUsed * 200 > f.eligibleLoads
                ? std::abs(s.accuracy() - f.accuracy())
                : 0.0;
        max_ipc_err = std::max(max_ipc_err, ipc_err);
        max_acc_err = std::max(max_acc_err, acc_err);
        mean_bound += bound;
        if (ipc_err > bound || acc_err > bound) {
            std::cerr << "OUT OF BOUNDS " << workloads[w]
                      << ": ipc err " << sim::fmtF(ipc_err, 4)
                      << ", accuracy err " << sim::fmtF(acc_err, 4)
                      << " vs bound " << sim::fmtF(bound, 4) << "\n";
            ++out_of_bounds;
        }
    }
    mean_bound /= double(W);
    const double suite_ipc_err =
        std::abs(geomeanIpc(cold) - geomeanIpc(full)) /
        geomeanIpc(full);
    std::cout << "max per-workload error:    ipc "
              << sim::fmtF(100.0 * max_ipc_err, 2) << "%, accuracy "
              << sim::fmtF(100.0 * max_acc_err, 2) << "% (mean bound "
              << sim::fmtF(100.0 * mean_bound, 2) << "%)\n"
              << "suite geomean IPC error:   "
              << sim::fmtF(100.0 * suite_ipc_err, 2) << "%\n";
    if (out_of_bounds > 0 || suite_ipc_err > mean_bound) {
        std::cerr << "sampled extrapolation missed its reported "
                     "confidence bounds ("
                  << out_of_bounds << "/" << W
                  << " workloads); refusing to report a speedup\n";
        return 4;
    }

    const double speedup = ratio(full_wall, cold_wall);
    const double warm_speedup = ratio(full_wall, warm_wall);
    std::cout << "within reported bounds: yes\nsampling speedup: "
              << sim::fmtF(speedup, 2) << "x cold, "
              << sim::fmtF(warm_speedup, 2) << "x warm\n";
    return writeJson(
        a, instrs,
        {{"sample_k", std::uint64_t(rc_sampled.sampleK)},
         {"interval_length",
          std::uint64_t(rc_sampled.sampleIntervalLen)},
         {"workloads", std::uint64_t(W)}},
        {{"full", object({{"wall_seconds", full_wall}})},
         {"sampled",
          object({{"wall_seconds", cold_wall},
                  {"checkpoint_build_seconds", checkpoint_seconds}})},
         {"warm", object({{"wall_seconds", warm_wall}})},
         {"speedup", speedup},
         {"warm_speedup", warm_speedup},
         {"max_rel_ipc_error", max_ipc_err},
         {"max_accuracy_error", max_acc_err},
         {"mean_sample_error", mean_bound},
         {"suite_ipc_error", suite_ipc_err},
         {"within_bounds", true},
         {"identical", true}});
}

/** One sweep over every store-phase configuration. */
struct Sweep
{
    std::vector<sim::SuiteResult> runs;
    double wallSeconds = 0.0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    double storeSeconds = 0.0;

    sim::JsonValue
    json() const
    {
        return object({{"wall_seconds", wallSeconds},
                       {"store_hits", storeHits},
                       {"store_misses", storeMisses},
                       {"store_seconds", storeSeconds}});
    }
};

/** FNV-1a over every result counter, for cross-process equality. */
std::string
resultsChecksum(const Sweep &s)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](std::string_view, std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const auto &run : s.runs) {
        for (const auto &row : run.rows) {
            pipe::forEachCounter(row.base, mix);
            pipe::forEachCounter(row.withVp, mix);
        }
    }
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << h;
    return os.str();
}

bool
sameSweep(const std::string &what, const Sweep &ref, const Sweep &got)
{
    bool ok = true;
    for (std::size_t c = 0; c < ref.runs.size(); ++c)
        ok &= sameRows(what + "/" + ref.runs[c].label, ref.runs[c],
                       got.runs[c]);
    return ok;
}

/** A cold phase must miss the store (it started empty); a warm one
 *  must be served by it alone. */
bool
storeServed(const std::string &what, const Sweep &s, bool warm)
{
    if (warm ? s.storeMisses == 0 && s.storeHits > 0
             : s.storeMisses > 0)
        return true;
    std::cerr << what
              << (warm ? " phase was not fully served from disk"
                       : " phase had no store misses; the store "
                         "directory was not empty")
              << " (" << s.storeHits << " hits, " << s.storeMisses
              << " misses)\n";
    return false;
}

int
runStore(const Args &a)
{
    const std::size_t instrs = sim::instrsFromEnv(20000);
    sim::RunConfig rc;
    rc.maxInstrs = instrs;
    rc.warmupInstrs =
        a.count("--warmup", sim::warmupFromEnv(16 * instrs));
    // The fig03-style grid every figure harness shares: component
    // predictors x table sizes.
    std::vector<std::pair<std::string, sim::PredictorFactory>> configs;
    for (pipe::ComponentId id :
         {pipe::ComponentId::LVP, pipe::ComponentId::SAP,
          pipe::ComponentId::CVP, pipe::ComponentId::CAP})
        for (std::size_t n : {256, 1024, 4096})
            configs.emplace_back(std::string(pipe::componentName(id)) +
                                     "-" + std::to_string(n),
                                 bench::singleFactory(id, n));
    const auto workloads = sim::suiteFromEnv();
    std::cout << "store throughput: " << configs.size()
              << " configurations x " << workloads.size()
              << " workloads, " << instrs << " instructions after "
              << rc.warmupInstrs << " warmup, jobs=" << a.jobs
              << ", phase=" << a.phase << "\n";
    synthesizeTraces(workloads, rc, a.jobs);

    auto &store = sim::CheckpointStore::instance();
    auto sweep = [&](const char *what, bool clearMemory) {
        if (clearMemory)
            clearSimCaches();
        store.resetCounters();
        Sweep s;
        const auto t0 = Clock::now();
        sim::SuiteRunner runner(workloads, rc, a.jobs);
        for (const auto &cfg : configs)
            s.runs.push_back(runner.run(cfg.first, cfg.second));
        s.wallSeconds = secondsSince(t0);
        s.storeHits = store.hits();
        s.storeMisses = store.misses();
        s.storeSeconds = store.seconds();
        std::cout << std::left << std::setw(24) << what
                  << sim::fmtF(s.wallSeconds, 3) << " s ("
                  << s.storeHits << " store hits, " << s.storeMisses
                  << " misses, " << sim::fmtF(s.storeSeconds, 3)
                  << " s store I/O)\n";
        return s;
    };
    auto useStore = [&] {
        store.configure(a.store, 0);
        if (!store.enabled())
            std::cerr << "store directory '" << a.store
                      << "' is unusable\n";
        return store.enabled();
    };
    const Fields meta = {
        {"warmup_instructions", std::uint64_t(rc.warmupInstrs)},
        {"configs", std::uint64_t(configs.size())},
        {"workloads", std::uint64_t(workloads.size())}};

    if (a.phase != "store") {
        const bool warm = a.phase == "store-warm";
        const char *key = warm ? "warm" : "cold";
        if (!useStore())
            return 2;
        const Sweep s = sweep(warm ? "warm process:" : "cold process:",
                              true);
        if (!storeServed(key, s, warm))
            return 3;
        return writeJson(a, instrs, meta,
                         {{key, s.json()},
                          {"results_checksum", resultsChecksum(s)}});
    }

    store.configure("", 0);
    const Sweep inline_s = sweep("inline (no store):", true);
    if (!useStore())
        return 2;
    const Sweep cold = sweep("cold (publishes):", true);
    const Sweep warm_mem = sweep("warm (memory, L1):", false);
    const Sweep warm_disk = sweep("warm (disk, L2):", true);
    bool identical = storeServed("cold", cold, false);
    identical &= storeServed("warm-disk", warm_disk, true);
    identical &= sameSweep("cold", inline_s, cold);
    identical &= sameSweep("warm-memory", inline_s, warm_mem);
    identical &= sameSweep("warm-disk", inline_s, warm_disk);
    if (!identical) {
        std::cerr << "store-served results diverged from the inline "
                     "reference; refusing to report a speedup\n";
        return 3;
    }

    const double speedup = ratio(cold.wallSeconds, warm_disk.wallSeconds);
    const double mem_speedup =
        ratio(cold.wallSeconds, warm_mem.wallSeconds);
    std::cout << "identical results: yes\nstore speedup: "
              << sim::fmtF(speedup, 2) << "x warm-disk, "
              << sim::fmtF(mem_speedup, 2) << "x warm-memory\n";
    return writeJson(a, instrs, meta,
                     {{"inline", inline_s.json()},
                      {"cold", cold.json()},
                      {"warm_memory", warm_mem.json()},
                      {"warm_disk", warm_disk.json()},
                      {"speedup", speedup},
                      {"warm_memory_speedup", mem_speedup},
                      {"results_checksum", resultsChecksum(inline_s)},
                      {"identical", true}});
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.phase == "throughput")
        return runThroughput(a);
    if (a.phase == "sampling")
        return runSampling(a);
    return runStore(a);
}

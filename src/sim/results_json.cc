#include "sim/results_json.hh"

#include <cmath>
#include <fstream>
#include <sstream>

namespace lvpsim
{
namespace sim
{

namespace
{

constexpr std::uint64_t kSchemaVersion = 1;

double
numberOr(const JsonValue *v, double fallback)
{
    return v && v->isNumber() ? v->asDouble() : fallback;
}

/**
 * Derived metrics can be NaN or infinite (empty suite, zero-IPC or
 * zero-instruction row). JSON has no encoding for those, so clamp
 * them to an explicit null; readers fall back via numberOr().
 */
JsonValue
finiteOrNull(double x)
{
    return std::isfinite(x) ? JsonValue(x) : JsonValue();
}

} // anonymous namespace

JsonValue
toJson(const pipe::SimStats &s)
{
    JsonValue o = JsonValue::object();
    pipe::forEachCounter(
        s, [&](std::string_view name, std::uint64_t v) {
            o.set(std::string(name), JsonValue(v));
        });
    // Derived metrics, for human readers and plotting scripts;
    // ignored on re-parse (recomputable from the counters above).
    o.set("ipc", finiteOrNull(s.ipc()));
    o.set("coverage", finiteOrNull(s.coverage()));
    o.set("accuracy", finiteOrNull(s.accuracy()));
    return o;
}

bool
simStatsFromJson(const JsonValue &v, pipe::SimStats &out)
{
    if (!v.isObject())
        return false;
    out = pipe::SimStats{};
    for (const auto &[key, val] : v.members()) {
        if (!val.isNumber())
            continue;
        // Unknown keys (ipc/coverage/accuracy, future additions) are
        // skipped; setCounter handles every raw counter.
        (void)pipe::setCounter(out, key, val.asU64());
    }
    return true;
}

JsonValue
toJson(const WorkloadResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("workload", JsonValue(r.workload));
    o.set("trace_format", JsonValue(r.traceFormat));
    o.set("trace_instructions", JsonValue(r.traceInstructions));
    o.set("storage_bits", JsonValue(r.storageBits));
    o.set("speedup", finiteOrNull(r.speedup()));
    o.set("coverage", finiteOrNull(r.coverage()));
    o.set("accuracy", finiteOrNull(r.accuracy()));
    o.set("base", toJson(r.base));
    o.set("with_vp", toJson(r.withVp));
    o.set("sampled", JsonValue(r.sampled));
    o.set("sample_error", finiteOrNull(r.sampleError));
    o.set("sample_k", JsonValue(r.sampleK));
    o.set("interval_length", JsonValue(r.intervalLength));
    o.set("base_seconds", JsonValue(r.baseSeconds));
    o.set("vp_seconds", JsonValue(r.vpSeconds));
    o.set("checkpoint_seconds", JsonValue(r.checkpointSeconds));
    return o;
}

bool
workloadResultFromJson(const JsonValue &v, WorkloadResult &out)
{
    if (!v.isObject())
        return false;
    out = WorkloadResult{};
    const JsonValue *name = v.find("workload");
    if (!name || !name->isString())
        return false;
    out.workload = name->asString();
    // Files written before trace metadata was recorded lack it;
    // keep the struct defaults ("synthetic", 0) for those.
    if (const JsonValue *tf = v.find("trace_format"))
        if (tf->isString())
            out.traceFormat = tf->asString();
    out.traceInstructions = std::uint64_t(
        numberOr(v.find("trace_instructions"), 0.0));
    if (const JsonValue *sb = v.find("storage_bits"))
        out.storageBits = sb->asU64();
    const JsonValue *base = v.find("base");
    const JsonValue *with = v.find("with_vp");
    if (!base || !with || !simStatsFromJson(*base, out.base) ||
        !simStatsFromJson(*with, out.withVp))
        return false;
    // Pre-sampling files lack the sampled block; keep the defaults
    // (full run) for those.
    if (const JsonValue *sm = v.find("sampled"))
        out.sampled = sm->asBool();
    out.sampleError = numberOr(v.find("sample_error"), 0.0);
    out.sampleK =
        std::uint64_t(numberOr(v.find("sample_k"), 0.0));
    out.intervalLength =
        std::uint64_t(numberOr(v.find("interval_length"), 0.0));
    out.baseSeconds = numberOr(v.find("base_seconds"), 0.0);
    out.vpSeconds = numberOr(v.find("vp_seconds"), 0.0);
    out.checkpointSeconds =
        numberOr(v.find("checkpoint_seconds"), 0.0);
    return true;
}

JsonValue
toJson(const SuiteResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("label", JsonValue(r.label));
    o.set("storage_bits", JsonValue(r.storageBits));
    o.set("storage_kb", JsonValue(r.storageKB()));
    o.set("geomean_speedup", finiteOrNull(r.geomeanSpeedup()));
    o.set("mean_coverage", finiteOrNull(r.meanCoverage()));
    o.set("mean_accuracy", finiteOrNull(r.meanAccuracy()));
    JsonValue rows = JsonValue::array();
    for (const auto &row : r.rows)
        rows.push(toJson(row));
    o.set("workloads", std::move(rows));
    o.set("wall_seconds", JsonValue(r.wallSeconds));
    return o;
}

bool
suiteResultFromJson(const JsonValue &v, SuiteResult &out)
{
    if (!v.isObject())
        return false;
    out = SuiteResult{};
    const JsonValue *label = v.find("label");
    if (!label || !label->isString())
        return false;
    out.label = label->asString();
    if (const JsonValue *sb = v.find("storage_bits"))
        out.storageBits = sb->asU64();
    const JsonValue *rows = v.find("workloads");
    if (!rows || !rows->isArray())
        return false;
    for (const auto &rv : rows->items()) {
        WorkloadResult r;
        if (!workloadResultFromJson(rv, r))
            return false;
        out.rows.push_back(std::move(r));
    }
    out.wallSeconds = numberOr(v.find("wall_seconds"), 0.0);
    return true;
}

JsonValue
resultsToJson(const std::vector<SuiteResult> &suites,
              const ReportMeta &meta)
{
    JsonValue o = JsonValue::object();
    o.set("schema_version", JsonValue(kSchemaVersion));
    o.set("tool", JsonValue("lvpsim"));
    JsonValue m = JsonValue::object();
    m.set("jobs", JsonValue(meta.jobs));
    m.set("instructions", JsonValue(meta.maxInstrs));
    m.set("warmup_instructions", JsonValue(meta.warmupInstrs));
    m.set("trace_seed", JsonValue(meta.traceSeed));
    m.set("sample_k", JsonValue(meta.sampleK));
    m.set("interval_length", JsonValue(meta.intervalLen));
    m.set("progress_instructions", JsonValue(meta.progressInstrs));
    m.set("suite", JsonValue(meta.suite));
    m.set("store_hits", JsonValue(meta.storeHits));
    m.set("store_misses", JsonValue(meta.storeMisses));
    m.set("store_seconds", JsonValue(meta.storeSeconds));
    o.set("meta", std::move(m));
    JsonValue arr = JsonValue::array();
    for (const auto &s : suites)
        arr.push(toJson(s));
    o.set("suites", std::move(arr));
    return o;
}

bool
resultsFromJson(const JsonValue &v, std::vector<SuiteResult> &suites,
                ReportMeta *meta)
{
    if (!v.isObject())
        return false;
    const JsonValue *ver = v.find("schema_version");
    if (!ver || !ver->isNumber() || ver->asU64() != kSchemaVersion)
        return false;
    if (meta) {
        *meta = ReportMeta{};
        if (const JsonValue *m = v.find("meta")) {
            meta->jobs =
                std::size_t(numberOr(m->find("jobs"), 1.0));
            meta->maxInstrs =
                std::size_t(numberOr(m->find("instructions"), 0.0));
            meta->warmupInstrs = std::size_t(
                numberOr(m->find("warmup_instructions"), 0.0));
            meta->traceSeed =
                std::uint64_t(numberOr(m->find("trace_seed"), 0.0));
            meta->sampleK =
                std::size_t(numberOr(m->find("sample_k"), 0.0));
            meta->intervalLen = std::size_t(
                numberOr(m->find("interval_length"), 0.0));
            meta->progressInstrs = std::uint64_t(
                numberOr(m->find("progress_instructions"), 0.0));
            if (const JsonValue *s = m->find("suite"))
                if (s->isString())
                    meta->suite = s->asString();
            meta->storeHits =
                std::uint64_t(numberOr(m->find("store_hits"), 0.0));
            meta->storeMisses =
                std::uint64_t(numberOr(m->find("store_misses"), 0.0));
            meta->storeSeconds =
                numberOr(m->find("store_seconds"), 0.0);
        }
    }
    const JsonValue *arr = v.find("suites");
    if (!arr || !arr->isArray())
        return false;
    suites.clear();
    for (const auto &sv : arr->items()) {
        SuiteResult s;
        if (!suiteResultFromJson(sv, s))
            return false;
        suites.push_back(std::move(s));
    }
    return true;
}

bool
writeResultsFile(const std::string &path,
                 const std::vector<SuiteResult> &suites,
                 const ReportMeta &meta, std::string *err)
{
    std::ofstream os(path);
    if (!os) {
        if (err)
            *err = "cannot open '" + path + "' for writing";
        return false;
    }
    resultsToJson(suites, meta).dump(os, 2);
    os << "\n";
    if (!os) {
        if (err)
            *err = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

bool
readResultsFile(const std::string &path,
                std::vector<SuiteResult> &suites, ReportMeta *meta,
                std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    std::string perr;
    JsonValue v = parseJson(buf.str(), &perr);
    if (v.isNull() && !perr.empty()) {
        if (err)
            *err = path + ": " + perr;
        return false;
    }
    if (!resultsFromJson(v, suites, meta)) {
        if (err)
            *err = path + ": not a valid lvpsim results document";
        return false;
    }
    return true;
}

} // namespace sim
} // namespace lvpsim

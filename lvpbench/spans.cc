#include "spans.hh"

#include <fstream>
#include <functional>

namespace lvpbench
{

namespace
{

const Clock::time_point kEpoch = Clock::now();

/** Innermost open Scope on this thread (0 = none). */
thread_local std::uint64_t openSpan = 0;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

} // anonymous namespace

double
at(Clock::time_point t)
{
    return seconds(t - kEpoch);
}

double
now()
{
    return at(Clock::now());
}

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

std::uint64_t
Tracer::newId()
{
    std::lock_guard<std::mutex> lk(mx);
    return nextId++;
}

void
Tracer::record(const Span &s)
{
    std::lock_guard<std::mutex> lk(mx);
    spans.push_back(s);
    spans.back().run = run_;
    spans.back().thread = std::this_thread::get_id();
}

std::vector<Span>
Tracer::spansOf(std::uint32_t run) const
{
    std::lock_guard<std::mutex> lk(mx);
    std::vector<Span> out;
    for (const Span &s : spans)
        if (s.run == run)
            out.push_back(s);
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mx);
    std::ofstream os(path);
    os.precision(9);
    os << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
           << ",\"end\":" << s.end << ",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"run\":" << s.run
           << ",\"thread\":" << std::hash<std::thread::id>{}(s.thread)
           << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    os << "]\n";
    return bool(os);
}

Scope::Scope(const char *name)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    active = true;
    span.name = name;
    span.id = t.newId();
    span.parent = openSpan;
    savedParent = openSpan;
    openSpan = span.id;
    span.start = now();
}

Scope::~Scope()
{
    if (!active)
        return;
    span.end = now();
    openSpan = savedParent;
    Tracer::instance().record(span);
}

TimedPredictor::TimedPredictor(const Factory &make, std::uint64_t parent,
                               CallCounts &counts)
    : created(Clock::now()), inner(make()), parent(parent), counts(counts)
{
    built = Clock::now();
}

TimedPredictor::~TimedPredictor()
{
    const auto end = Clock::now();
    if (firstCall == Clock::time_point{})
        firstCall = end;
    counts.predict += predictCalls;
    counts.train += trainCalls;
    counts.abandon += abandonCalls;

    Tracer &t = Tracer::instance();
    auto record = [&](const char *name, std::uint64_t parentId,
                      Clock::time_point from, Clock::time_point to) {
        Span s;
        s.name = name;
        s.start = at(from);
        s.end = at(to);
        s.id = t.newId();
        s.parent = parentId;
        t.record(s);
        return s.id;
    };
    const auto task = record("exec.task", parent, created, end);
    record("core.ctor", task, created, built);
    record("pipeline.restore", task, built, firstCall);
    const auto run = record("pipeline.run", task, firstCall, end);
    record("core.predict", run, end - predictTime, end);
    record("core.train", run, end - trainTime, end);
}

lvpsim::pipe::Prediction
TimedPredictor::predict(const lvpsim::pipe::LoadProbe &probe)
{
    touch();
    const auto t0 = Clock::now();
    const auto p = inner->predict(probe);
    predictTime += Clock::now() - t0;
    ++predictCalls;
    return p;
}

void
TimedPredictor::train(const lvpsim::pipe::LoadOutcome &outcome)
{
    touch();
    const auto t0 = Clock::now();
    inner->train(outcome);
    trainTime += Clock::now() - t0;
    ++trainCalls;
}

void
TimedPredictor::abandon(std::uint64_t token)
{
    touch();
    inner->abandon(token);
    ++abandonCalls;
}

} // namespace lvpbench

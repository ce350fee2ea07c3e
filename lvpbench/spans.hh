/**
 * @file
 * Traced-mode instrumentation for the benchmark: in-memory spans
 * around each timed call into a simulator module, and a forwarding
 * load-value-predictor decorator that counts and times the core's
 * predictor calls and records each suite row as an executor task. All of it lives
 * in the benchmark; the simulator itself is not instrumented.
 *
 * With tracing off, Scope neither reads the clock nor records, and
 * the benchmark hands the simulator the undecorated predictor, so
 * an untraced run executes exactly the code a user's run does.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/lvp_interface.hh"

namespace lvpbench
{

using Clock = std::chrono::steady_clock;

/** Seconds since a process-wide epoch (steady clock). */
double now();

/** One timed call. Times are seconds since the tracer epoch. */
struct Span
{
    const char *name = "";    ///< string literal, e.g. "trace.get"
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< enclosing span id, 0 = none
    std::uint32_t run = 0;    ///< repetition the span belongs to
    std::thread::id thread;   ///< recording thread (executor worker)
};

/**
 * Process-wide span buffer. Spans stay in memory until writeJson()
 * at exit. enable()/setRun() are called only between jobs, when no
 * worker thread is running.
 */
class Tracer
{
  public:
    static Tracer &instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    void setRun(std::uint32_t run) { run_ = run; }

    std::uint64_t newId();
    void record(const Span &s);

    /** Spans recorded for one repetition. */
    std::vector<Span> spansOf(std::uint32_t run) const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool writeJson(const std::string &path) const;

  private:
    mutable std::mutex mx;
    std::vector<Span> spans;
    std::uint64_t nextId = 1;
    bool enabled_ = false;
    std::uint32_t run_ = 0;
};

/** Seconds since the tracer epoch of a steady-clock time point. */
double at(Clock::time_point t);

/**
 * RAII span around one call. The parent is the innermost open Scope
 * on this thread, if any.
 */
class Scope
{
  public:
    explicit Scope(const char *name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return span.id; }

  private:
    Span span;
    bool active = false;
    std::uint64_t savedParent = 0;
};

/** Predictor call counts summed over every TimedPredictor of a job. */
struct CallCounts
{
    std::atomic<std::uint64_t> predict{0}, train{0}, abandon{0};
};

/**
 * Forwarding predictor decorator. It builds the wrapped predictor
 * itself, counts predict/train/abandon calls and times predict and
 * train. Every virtual is forwarded, so the simulated results are
 * identical to running the wrapped predictor directly (the
 * self-tests compare checksums of both).
 *
 * A suite row owns its predictor from the factory call to the end of
 * the row, so at destruction the decorator records that lifetime as
 * an `exec.task` span under @p parent, on the worker thread that ran
 * the row. Its children are `core.ctor` (the factory call),
 * `pipeline.restore` (up to the core's first call into the
 * predictor: trace and checkpoint lookups, Core construction and
 * Core::restoreState) and `pipeline.run` (the rest), which in turn
 * holds one `core.predict` and one `core.train` span of the summed
 * call times.
 */
class TimedPredictor final : public lvpsim::pipe::LoadValuePredictor
{
  public:
    using Factory =
        std::function<std::unique_ptr<lvpsim::pipe::LoadValuePredictor>()>;

    TimedPredictor(const Factory &make, std::uint64_t parent,
                   CallCounts &counts);
    ~TimedPredictor() override;

    lvpsim::pipe::Prediction
    predict(const lvpsim::pipe::LoadProbe &probe) override;
    void train(const lvpsim::pipe::LoadOutcome &outcome) override;
    void abandon(std::uint64_t token) override;
    void notifyBranch(lvpsim::Addr pc, bool taken,
                      lvpsim::Addr target) override
    {
        touch();
        inner->notifyBranch(pc, taken, target);
    }
    void notifyLoad(lvpsim::Addr pc) override
    {
        touch();
        inner->notifyLoad(pc);
    }
    void onRetire(std::uint64_t n) override
    {
        touch();
        inner->onRetire(n);
    }
    std::size_t pendingProbes() const override
    {
        return inner->pendingProbes();
    }
    std::size_t pendingProbesPeak() const override
    {
        return inner->pendingProbesPeak();
    }
    std::uint64_t storageBits() const override
    {
        return inner->storageBits();
    }
    const char *name() const override { return inner->name(); }
    void dumpStats(std::ostream &os) const override
    {
        inner->dumpStats(os);
    }

  private:
    /** Note the core's first call into the predictor. */
    void touch()
    {
        if (firstCall == Clock::time_point{})
            firstCall = Clock::now();
    }

    const Clock::time_point created;
    Clock::time_point built, firstCall;
    std::unique_ptr<lvpsim::pipe::LoadValuePredictor> inner;
    const std::uint64_t parent;
    CallCounts &counts;
    std::uint64_t predictCalls = 0, trainCalls = 0, abandonCalls = 0;
    Clock::duration predictTime{}, trainTime{};
};

} // namespace lvpbench

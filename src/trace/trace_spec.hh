/**
 * @file
 * Workload specs: the one-string naming scheme for every trace lvpsim
 * can run, and the one loader behind it.
 *
 * Everywhere lvpsim takes a workload (CLI `--workload`, SuiteRunner
 * rows, cache keys) it takes a *spec*:
 *
 *  - `NAME` or `synth:NAME`  — the registered synthetic kernel NAME,
 *                              or a kernel spec (docs/kernel_dsl.md);
 *  - `lvpt:PATH`             — a recorded `.lvpt` binary trace;
 *  - `cvp:PATH`              — a CVP-1 championship trace
 *                              (optionally gzip-compressed).
 *
 * Bare names stay synthetic, so every historical workload string is
 * still a valid spec with unchanged meaning. See docs/traces.md.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/instruction.hh"

namespace lvpsim
{
namespace trace
{

/** Which kind of input a spec names. */
enum class TraceKind
{
    Synthetic, ///< generated kernel (workloads.hh)
    Lvpt,      ///< recorded `.lvpt` binary (trace_io.hh)
    Cvp,       ///< CVP-1 championship trace (cvp_trace.hh)
};

/** A parsed workload spec: kind + kernel name or file path. */
struct TraceSpec
{
    TraceKind kind = TraceKind::Synthetic;
    std::string name; ///< kernel name (Synthetic) or file path
};

/**
 * Parse a spec string (see the file comment for the grammar). Never
 * fails: an unknown prefix is simply part of a synthetic kernel name
 * (kernel names contain no ':', so the prefixes cannot collide).
 */
TraceSpec parseTraceSpec(const std::string &spec);

/** Canonical spec string (bare name for synthetic kernels). */
std::string traceSpecString(const TraceSpec &spec);

/** A loaded trace plus the metadata the sim layer keys on. */
struct LoadedTrace
{
    std::vector<MicroOp> ops; ///< the instruction stream
    /**
     * Equal identity => bit-identical ops; the sim caches key on it
     * (docs/traces.md §"Trace identity and the sweep caches"):
     *  - `synth:<canonical kernel name>#<max_ops>#<seed>`;
     *  - `lvpt:PATH#<file count>#<file hash>#cap<max_ops>`;
     *  - `cvp:PATH#<parsed count>#<parsed hash>#cap<max_ops>`.
     * File identities hash content, so a rewritten file never
     * aliases a stale cache entry.
     */
    std::string identity;
    std::string format; ///< "synthetic", "lvpt", or "cvp"
};

/**
 * Load the trace @p spec names.
 *
 * @param spec a trace spec (see the file comment)
 * @param max_ops instruction budget: generation length for kernels,
 *        parse bound for CVP files, truncation for `.lvpt` files
 *        (0 = whole file)
 * @param seed kernel generation seed (ignored for files)
 * @param[out] err on failure `unknown workload '…'`,
 *        `bad kernel spec '…': …` or `cannot load trace '…': …`
 * @return the trace, or nullopt with @p err set
 */
std::optional<LoadedTrace> loadTrace(const std::string &spec,
                                     std::size_t max_ops,
                                     std::uint64_t seed,
                                     std::string *err);

} // namespace trace
} // namespace lvpsim

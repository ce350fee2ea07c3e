#include "trace/trace_spec.hh"

#include "trace/cvp_trace.hh"
#include "trace/kernel_spec.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace lvpsim
{
namespace trace
{

namespace
{

bool
hasPrefix(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

} // anonymous namespace

TraceSpec
parseTraceSpec(const std::string &spec)
{
    if (hasPrefix(spec, "synth:"))
        return {TraceKind::Synthetic, spec.substr(6)};
    if (hasPrefix(spec, "lvpt:"))
        return {TraceKind::Lvpt, spec.substr(5)};
    if (hasPrefix(spec, "cvp:"))
        return {TraceKind::Cvp, spec.substr(4)};
    return {TraceKind::Synthetic, spec};
}

std::string
traceSpecString(const TraceSpec &spec)
{
    switch (spec.kind) {
      case TraceKind::Synthetic: return spec.name;
      case TraceKind::Lvpt: return "lvpt:" + spec.name;
      case TraceKind::Cvp: return "cvp:" + spec.name;
    }
    return spec.name;
}

std::optional<LoadedTrace>
loadTrace(const std::string &spec, std::size_t max_ops,
          std::uint64_t seed, std::string *err)
{
    const TraceSpec ts = parseTraceSpec(spec);
    LoadedTrace t;
    std::string why;
    if (ts.kind == TraceKind::Synthetic) {
        const auto kernel = makeWorkload(ts.name, &why);
        if (!kernel) {
            if (err)
                *err = why;
            return std::nullopt;
        }
        t.ops = kernel->generate(max_ops, seed);
        // (kernel, budget, seed) fully determines the stream, so no
        // content hash is needed. Canonical, so equivalent kernel-spec
        // spellings share cache entries.
        t.identity = "synth:" + canonicalSyntheticName(ts.name) + "#" +
                     std::to_string(max_ops) + "#" +
                     std::to_string(seed);
        t.format = "synthetic";
        return t;
    }
    // A CVP parse stops at max_ops; an .lvpt file is read whole (its
    // identity hashes the whole file) and truncated after.
    const bool cvp = ts.kind == TraceKind::Cvp;
    const bool ok = cvp ? loadCvpTraceFile(ts.name, t.ops, &why, max_ops)
                        : loadTraceFile(ts.name, t.ops, &why);
    if (!ok) {
        if (err)
            *err = "cannot load trace '" + ts.name + "': " + why;
        return std::nullopt;
    }
    t.format = cvp ? "cvp" : "lvpt";
    // The cap is part of the identity because it changes the
    // delivered stream.
    t.identity = t.format + ":" + ts.name + "#" +
                 std::to_string(t.ops.size()) + "#" +
                 std::to_string(hashTrace(t.ops)) + "#cap" +
                 std::to_string(max_ops);
    if (max_ops && t.ops.size() > max_ops)
        t.ops.resize(max_ops);
    return t;
}

} // namespace trace
} // namespace lvpsim

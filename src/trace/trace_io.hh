/**
 * @file
 * Binary trace file I/O.
 *
 * Traces are regenerable from (kernel, seed), but a file format lets
 * users archive runs, diff traces across versions, and feed externally
 * produced traces (e.g. converted CVP-1 traces) into the pipeline.
 *
 * Format: a 16-byte header (magic "LVPT", version, count) followed by
 * fixed-size little-endian records, one per MicroOp. Also home to the
 * two format-independent helpers: a content hash and a one-line
 * rendering of a MicroOp.
 */

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/instruction.hh"

namespace lvpsim
{
namespace trace
{

/** Current trace file format version. */
constexpr std::uint32_t traceFormatVersion = 1;

/** Serialize @p ops to @p os. Returns false on I/O error. */
bool writeTrace(std::ostream &os, const std::vector<MicroOp> &ops);

/**
 * Deserialize a trace from @p is.
 * @param[out] ops replaced with the file contents
 * @param[out] error human-readable reason on failure
 */
bool readTrace(std::istream &is, std::vector<MicroOp> &ops,
               std::string *error = nullptr);

/** Convenience file wrappers (fatal-free; return false on error). */
bool saveTraceFile(const std::string &path,
                   const std::vector<MicroOp> &ops);
bool loadTraceFile(const std::string &path,
                   std::vector<MicroOp> &ops,
                   std::string *error = nullptr);

/** FNV-1a content hash over a MicroOp stream (trace identities). */
std::uint64_t hashTrace(const std::vector<MicroOp> &ops);

/**
 * Stable single-line rendering of one MicroOp, e.g.
 * `pc=0x4000 cls=4 dst=3 src=1,-,- ea=0x10000 sz=8 val=0x2a
 * excl=0 taken=0 tgt=0x0` — the format golden-trace fixtures are
 * diffed in (the `.golden` files under tests/data).
 */
std::string debugString(const MicroOp &op);

} // namespace trace
} // namespace lvpsim


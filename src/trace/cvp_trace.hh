/**
 * @file
 * CVP-1 championship trace format: reader and writer (`cvp:PATH`
 * specs load through `loadTrace`, trace_spec.hh).
 *
 * The public CVP-1 infrastructure (the load value / value prediction
 * championships) defined a de-facto standard trace format: a flat
 * little-endian record stream, usually gzip-compressed, one record
 * per retired instruction, carrying the PC, an instruction class,
 * memory address/size for loads and stores, branch outcome/target,
 * and the architectural input/output registers with the output
 * values. This file implements that record layout over lvpsim's
 * `MicroOp` representation so championship traces (and any trace
 * converted to the format) can drive the full pipeline, and so our
 * traces can be exported for championship-style predictors.
 *
 * The exact field-by-field on-disk layout is documented in
 * docs/traces.md §"CVP-1 trace format"; `readCvpTrace` and
 * `writeCvpTrace` are inverses over the subset of MicroOp the format
 * can carry (`cvpProjection` defines that subset precisely, and the
 * fuzz suite enforces it).
 *
 * Gzip-compressed files are detected by their 2-byte magic and
 * decompressed transparently when lvpsim is built with zlib
 * (`cvpGzipSupported()`); without zlib they fail with a clean error.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/instruction.hh"

namespace lvpsim
{
namespace trace
{

/**
 * CVP-1 instruction classes (the championship kit's `InstClass`
 * enum, same numeric values).
 */
enum class CvpInstClass : std::uint8_t
{
    Alu = 0,            ///< simple integer op
    Load = 1,           ///< memory read
    Store = 2,          ///< memory write
    CondBranch = 3,     ///< conditional direct branch
    UncondDirect = 4,   ///< unconditional direct branch / call
    UncondIndirect = 5, ///< indirect branch / return
    Fp = 6,             ///< floating-point op
    SlowAlu = 7,        ///< long-latency integer op (mul/div)
    Undef = 8,          ///< anything else (nop, system, ...)
};

/** Number of valid CvpInstClass values (Undef included). */
constexpr unsigned numCvpInstClasses = 9;

/** CVP-1 register-file split: ids 0-31 integer, 32-63 FP/SIMD
 *  (16-byte values on disk), 64 the condition flags, 65 the zero
 *  register. Only 0-63 map onto lvpsim's architectural registers;
 *  64 and 65 are dropped on import. */
constexpr std::uint8_t cvpFirstSimdReg = 32;
/** First register id past the FP/SIMD bank (see cvpFirstSimdReg). */
constexpr std::uint8_t cvpFlagsReg = 64;
/** The always-zero register id (see cvpFirstSimdReg). */
constexpr std::uint8_t cvpZeroReg = 65;

/**
 * Parse a raw (uncompressed) CVP-1 record stream.
 *
 * @param is the byte stream, positioned at the first record
 * @param[out] ops replaced with the decoded instructions
 * @param[out] error human-readable reason on failure (truncated
 *             record, bad instruction class, implausible register
 *             count)
 * @param max_records stop after this many records (0 = whole stream)
 * @return false on malformed input; @p ops then holds the records
 *         decoded before the error
 */
bool readCvpTrace(std::istream &is, std::vector<MicroOp> &ops,
                  std::string *error = nullptr,
                  std::size_t max_records = 0);

/**
 * Serialize @p ops as a CVP-1 record stream (uncompressed).
 * Lossy exactly as `cvpProjection` describes. False on I/O error.
 */
bool writeCvpTrace(std::ostream &os, const std::vector<MicroOp> &ops);

/**
 * Load a CVP-1 trace file, decompressing transparently when the file
 * starts with the gzip magic (requires zlib; see cvpGzipSupported).
 * @return false with @p error set on open/decode failure
 */
bool loadCvpTraceFile(const std::string &path,
                      std::vector<MicroOp> &ops,
                      std::string *error = nullptr,
                      std::size_t max_records = 0);

/**
 * Write @p ops as a CVP-1 trace file.
 * @param gzip compress with zlib; fails cleanly when lvpsim was
 *        built without it
 */
bool saveCvpTraceFile(const std::string &path,
                      const std::vector<MicroOp> &ops,
                      bool gzip = false,
                      std::string *error = nullptr);

/** True when this build can read/write gzip-compressed traces. */
bool cvpGzipSupported();

/**
 * The CVP-1 class a MicroOp exports as (the writer's mapping):
 * IntAlu/Barrier → Alu, IntMul/IntDiv → SlowAlu, FpAlu → Fp,
 * Branch → CondBranch, Call → UncondDirect, Ret/IndirBr →
 * UncondIndirect, Nop → Undef.
 */
CvpInstClass cvpClassOf(OpClass c);

/**
 * The exact information a CVP-1 round trip preserves: write(op) then
 * read yields cvpProjection(op). The projection
 *  - folds IntDiv into IntMul and Call into Branch, Ret into IndirBr
 *    and Barrier into IntAlu (the format's coarser class set);
 *  - zeroes memValue on non-loads (only load output values are
 *    carried) and clears exclusiveMem (not representable);
 *  - rewrites a not-taken branch's target to the fall-through
 *    `pc + 4` (targets are only stored for taken branches) and
 *    zeroes target on non-control ops;
 *  - zeroes effAddr/memSize on non-memory ops and clamps memSize
 *    into [1, 8].
 */
MicroOp cvpProjection(const MicroOp &op);

} // namespace trace
} // namespace lvpsim

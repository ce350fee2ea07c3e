/**
 * @file
 * KernelSpec: a distribution-driven synthetic-kernel DSL.
 *
 * A spec assembles a kernel from *pattern primitives* (constant /
 * stride / finite-context / random-pick / pointer-chase streams),
 * combined per phase with a pick strategy (sequential, round-robin
 * or seeded-random interleave), pattern-mix ratios (block weights),
 * a phase-change schedule (finite phases cycle; a final infinite
 * phase runs forever) and parameterized working-set sizes. One spec
 * therefore names a whole family of workloads, and — unlike the
 * hand-written kernels — each spec carries an *analytic* ground-truth
 * predictability profile (see trace/spec_truth.hh).
 *
 * Specs have a stable text grammar accepted everywhere a workload
 * name is (see docs/kernel_dsl.md):
 *
 *     synth:[iters=1000,mix=rr]stride(wset=256,step=8),const(v=0x42)*2;
 *           [iters=500]pick(k=8)
 *
 * Emission layers on the existing SynthKernel/Asm machinery, so a
 * spec trace is dataflow- and memory-consistent like any hand-written
 * kernel, and a handful of the legacy kernels are reproducible
 * byte-for-byte as specs (see tests/test_spec_differential.cc).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/synth_kernel.hh"

namespace lvpsim
{
namespace trace
{

/** The pattern primitive a stream emits (one load block per rep). */
enum class PatternKind
{
    Const,  ///< same address, same value every time (Pattern-1)
    Stride, ///< pointer walks a region in fixed steps (Pattern-2)
    Ctx,    ///< periodic working set in a zigzag order (Pattern-3)
    Pick,   ///< uniform random slot of a small table (low locality)
    Chase,  ///< linked-list traversal with payload + flag loads
};

/** How a block's loaded value feeds the phase accumulator. */
enum class GlueOp
{
    Add,  ///< integer add into the accumulator
    Xor,  ///< xor into the accumulator
    Fadd, ///< FP-latency add into the accumulator
    None, ///< value left unused (no glue op emitted)
};

/** Per-iteration interleaving of a phase's stream blocks. */
enum class MixStrategy
{
    Seq,        ///< blocks in spec order
    RoundRobin, ///< one block per stream in turn until weights drain
    Random,     ///< seeded-random shuffle of the block list
};

/** How a stream's backing region is filled during init. */
enum class FillKind
{
    Seq, ///< slot j holds v0 + j*dv (distinct by construction)
    Rng, ///< slot j holds the next kernel-seeded random word
};

/** Node visiting order of a Chase stream's cycle. */
enum class ChaseOrder
{
    Zigzag,  ///< deterministic 0, W-1, 1, W-2, ... permutation
    Shuffle, ///< seeded Fisher-Yates shuffle (legacy pointer_chase)
};

/** One pattern stream inside a phase. */
struct StreamSpec
{
    PatternKind kind = PatternKind::Const;
    GlueOp glue = GlueOp::Add;
    /** Block repetitions per iteration (pattern-mix ratio). Each rep
     *  is a distinct static load site. */
    unsigned weight = 1;
    /** Const: the loaded value. */
    Value value = 0x1000;
    /** Stride: elements in the region; Chase: nodes in the cycle. */
    std::uint64_t wset = 64;
    /** Stride: byte step per rep; Chase: node size in bytes. */
    std::int64_t step = 8;
    /** Load size in bytes (4 or 8). */
    unsigned esz = 8;
    /** Region fill for Stride/Ctx/Pick. */
    FillKind fill = FillKind::Seq;
    /** FillKind::Seq base value. */
    Value fillBase = 0x1000;
    /** FillKind::Seq per-slot increment (must be nonzero). */
    Value fillStep = 0x29;
    /** Ctx: slots in the periodic working set. */
    unsigned period = 8;
    /** Pick: entries in the randomly indexed table. */
    unsigned entries = 8;
    /** Chase: node visiting order. */
    ChaseOrder order = ChaseOrder::Zigzag;
};

/** One phase of a spec kernel's schedule. */
struct PhaseSpec
{
    /** Iterations before moving on; 0 = run forever (last phase
     *  only). Finite phase lists cycle back to the first phase. */
    std::uint64_t iters = 0;
    MixStrategy mix = MixStrategy::Seq;
    /** Region base address; 0 = auto (0x60000000 + 64 MiB per
     *  phase). Stream regions pack back-to-back from here. */
    Addr base = 0;
    std::vector<StreamSpec> streams;
};

/** A full kernel spec: the phase schedule. */
struct KernelSpec
{
    std::vector<PhaseSpec> phases;
};

/** Stream defaults for a kind (canonical printing elides these). */
StreamSpec defaultStream(PatternKind kind);

/**
 * Parse the `synth:` grammar (without the prefix; see
 * docs/kernel_dsl.md). Returns an empty-phase spec and sets
 * @p error on malformed input or a spec that fails validation.
 */
KernelSpec parseKernelSpec(const std::string &text,
                           std::string *error = nullptr);

/**
 * Canonical text for a spec: fixed parameter order, defaults elided,
 * addresses and values in hex. parse(print(parse(s))) is a fixed
 * point for every valid s.
 */
std::string printKernelSpec(const KernelSpec &spec);

/**
 * Structural validation: phase/stream bounds, region overlap, the
 * per-kind constraints the ground-truth math relies on. Returns ""
 * when valid, else a one-line reason.
 */
std::string validateKernelSpec(const KernelSpec &spec);

/** True when @p name parses as a spec (not a registered kernel). */
bool looksLikeKernelSpec(const std::string &name);

/**
 * The canonical cache-identity name for a synthetic workload string:
 * registered kernel names pass through unchanged; spec strings are
 * canonicalized so equivalent spellings share TraceCache /
 * checkpoint-cache entries. Unparseable non-registered names also
 * pass through (downstream generation reports the error).
 */
std::string canonicalSyntheticName(const std::string &name);

/** The effective region base of phase @p idx (auto bases resolved). */
Addr phaseBaseAddr(const PhaseSpec &phase, std::size_t idx);

/** Byte footprint of one stream's backing region. */
std::uint64_t streamFootprint(const StreamSpec &s);

/**
 * A SynthKernel driven by a KernelSpec. name() is the canonical spec
 * text, the same string canonicalSyntheticName() returns.
 */
class SpecKernel : public SynthKernel
{
  public:
    explicit SpecKernel(KernelSpec spec);
    ~SpecKernel() override; // out of line: EmitState is incomplete here

    /** The validated spec this kernel emits. */
    const KernelSpec &spec() const { return ks; }

  protected:
    void init(Asm &a) const override;
    void body(Asm &a) const override;

  private:
    struct EmitState;

    void emitPrologue(Asm &a, std::size_t phase) const;
    void emitIteration(Asm &a, std::size_t phase) const;
    void emitBlock(Asm &a, std::size_t phase, std::size_t stream,
                   unsigned rep) const;

    KernelSpec ks;
    // Mutable: generate() is const but emission carries per-phase
    // positions (ctx zigzag cursors, schedule state) across body()
    // re-entries. Reset by init() at the start of every generate().
    mutable std::unique_ptr<EmitState> st;
};

} // namespace trace
} // namespace lvpsim

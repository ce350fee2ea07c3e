/**
 * @file
 * The on-disk checkpoint format: the io codecs that carry a
 * `pipe::Core::State` through the checkpoint store
 * (src/sim/checkpoint_store.hh, docs/performance.md).
 *
 * Each checkpointed State has one `io(Ar &, State &)` body that both
 * encodes (Ar = BinWriter) and decodes (Ar = BinReader) it; the rule
 * and its lint are described once in docs/architecture.md,
 * "Checkpointed state".
 *
 * Decoding is *total*: structurally or semantically invalid input
 * flips the BinReader's sticky fail flag (checked by the store,
 * which treats it as a miss) and never asserts or throws. Geometry
 * mismatches (e.g. a checkpoint from a differently sized config) are
 * caught one level up by the store key, which encodes the full run
 * config; this layer only validates what it needs to stay memory-safe.
 */

#pragma once

#include "common/binio.hh"
#include "pipeline/core.hh"

namespace lvpsim
{
namespace pipe
{

/**
 * Bumped whenever any io encoding changes shape. Mismatched
 * versions are store misses, never decode attempts.
 */
constexpr std::uint32_t kSnapshotFormatVersion = 1;

/** A core checkpoint; defined for BinWriter and BinReader. */
template <class Ar> void io(Ar &ar, Core::State &s);

/**
 * Counters travel as (FNV-1a name hash, value) pairs: renaming,
 * adding, or removing a counter changes the stream and turns stale
 * store entries into misses automatically.
 */
void io(BinWriter &w, SimStats &s);
void io(BinReader &r, SimStats &s);

} // namespace pipe
} // namespace lvpsim

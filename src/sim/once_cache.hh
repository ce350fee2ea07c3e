/**
 * @file
 * The build-once memo behind TraceCache, CheckpointCache,
 * BaselineCache and PlanCache.
 *
 * SlotMap finds or creates a key's shared slot under a short-lived
 * SharedMutex that is never held while the slot is used. OnceCache<V>
 * builds each key once: the first caller for a key builds the value
 * under the slot's own mutex, concurrent callers for that key wait
 * for it, and other keys proceed. Since the map lock is not held
 * during a build, builds may get() from other caches (a baseline
 * needs its checkpoint, which needs its trace). A build that throws
 * leaves the key unbuilt, so the next get() retries. (std::call_once
 * promises that too, but under ThreadSanitizer a throwing call_once
 * leaves its flag locked for good.)
 *
 * A store kind ("ckpt:", "base:", "plan:") plus a payload codec makes
 * the CheckpointStore the memo's L2: with the store enabled, a key
 * missing from memory is loaded from disk under `kind + key`, or else
 * built and published. The codec is one `codec(Ar &, V &)` callable
 * that both encodes (Ar = BinWriter) and decodes (Ar = BinReader),
 * in the shared field spelling of common/binio.hh. Payloads start
 * with pipe::kSnapshotFormatVersion and must decode exactly; anything
 * else is a miss and a rebuild. generations() counts real builds
 * only.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/binio.hh"
#include "common/sync.hh"
#include "pipeline/snapshot_io.hh"
#include "sim/checkpoint_store.hh"

namespace lvpsim
{
namespace sim
{

/** Thread-safe key -> shared slot map with find-or-create access. */
template <typename Slot>
class SlotMap
{
  public:
    /** The slot for @p key, default-constructed on first request. */
    std::shared_ptr<Slot> ensure(const std::string &key) EXCLUDES(mx)
    {
        {
            ReaderLock rd(mx);
            auto it = slots.find(key);
            if (it != slots.end())
                return it->second;
        }
        WriterLock wr(mx);
        // Re-check: another thread may have inserted meanwhile.
        auto [it, inserted] = slots.try_emplace(key);
        if (inserted)
            it->second = std::make_shared<Slot>();
        return it->second;
    }

    /** Drop every slot; holders of a slot keep it alive. */
    void clear() EXCLUDES(mx)
    {
        WriterLock wr(mx);
        slots.clear();
    }

  private:
    mutable SharedMutex mx;
    // lvplint: allow(determinism) -- keyed lookup map, never iterated
    std::unordered_map<std::string, std::shared_ptr<Slot>> slots
        GUARDED_BY(mx);
};

/** Process-wide build-once memo of V values, optionally backed by
 *  the CheckpointStore (see the file comment). */
template <typename V>
class OnceCache
{
  public:
    using Ptr = std::shared_ptr<const V>;

    /** @p storeKind prefixes this cache's store keys; a cache built
     *  without one is memory-only. */
    explicit OnceCache(std::string storeKind = {})
        : kind(std::move(storeKind))
    {
    }

    /** Memory-only: `build(V &)` fills the value once per key. */
    template <typename Build>
    Ptr get(const std::string &key, Build &&build)
    {
        return once(key, [&](V &v) { buildCounted(v, build); });
    }

    /** Store-backed: with the store enabled, load the value with
     *  @p codec, or build it and publish it with @p codec. */
    template <typename Build, typename Codec>
    Ptr get(const std::string &key, Build &&build, Codec &&codec)
    {
        return once(key, [&](V &v) {
            auto &store = CheckpointStore::instance();
            if (!store.enabled()) {
                buildCounted(v, build);
                return;
            }
            store.fetchOrBuild(
                kind + key,
                [&](BinReader &r) { return unframe(r, v, codec); },
                [&](BinWriter &w) {
                    buildCounted(v, build);
                    frame(w, v, codec);
                });
        });
    }

    /** Load @p key's store entry into @p v, for callers that keep
     *  their own slots (CheckpointCache::getIntervals). */
    template <typename Codec>
    bool tryLoad(const std::string &key, V &v, Codec &&codec)
    {
        return CheckpointStore::instance().tryLoad(
            kind + key,
            [&](BinReader &r) { return unframe(r, v, codec); });
    }

    /** Publish @p v as @p key's store entry (no-op when disabled). */
    template <typename Codec>
    void publish(const std::string &key, const V &v, Codec &&codec)
    {
        CheckpointStore::instance().publish(
            kind + key, [&](BinWriter &w) { frame(w, v, codec); });
    }

    /** Number of values actually built (not memory or disk hits). */
    std::uint64_t generations() const
    {
        return generated.load(std::memory_order_relaxed);
    }

    /** Drop every memoized value (test hook; the store keeps its
     *  entries). */
    void clear() { slots.clear(); }

  private:
    struct Slot
    {
        Mutex buildMx; ///< held by the one caller building the value
        std::atomic<bool> ready{false};
        // lvplint: allow(lock-discipline) -- written once under
        // buildMx before `ready` is released; read after acquiring it
        Ptr value;
    };

    template <typename Fill>
    Ptr once(const std::string &key, Fill &&fill)
    {
        auto slot = slots.ensure(key);
        if (!slot->ready.load(std::memory_order_acquire)) {
            MutexLock lk(slot->buildMx);
            if (!slot->ready.load(std::memory_order_relaxed)) {
                auto v = std::make_shared<V>();
                fill(*v);
                slot->value = std::move(v);
                slot->ready.store(true, std::memory_order_release);
            }
        }
        return slot->value;
    }

    template <typename Build>
    void buildCounted(V &v, Build &build)
    {
        build(v);
        generated.fetch_add(1, std::memory_order_relaxed);
    }

    /** A codec only reads its value when writing, so the
     *  const_cast is never written through. */
    template <typename Codec>
    static void frame(BinWriter &w, const V &v, Codec &codec)
    {
        w.u32(pipe::kSnapshotFormatVersion);
        codec(w, const_cast<V &>(v));
    }

    template <typename Codec>
    static bool unframe(BinReader &r, V &v, Codec &codec)
    {
        if (r.u32() != pipe::kSnapshotFormatVersion)
            return false;
        codec(r, v);
        return r.ok() && r.atEnd();
    }

    const std::string kind;
    SlotMap<Slot> slots;
    std::atomic<std::uint64_t> generated{0};
};

} // namespace sim
} // namespace lvpsim

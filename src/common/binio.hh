/**
 * @file
 * Little-endian binary serialization primitives for the checkpoint
 * store (docs/performance.md).
 *
 * BinWriter appends to a growable byte buffer; BinReader walks a
 * read-only span with bounds checking. The reader is *total*: any
 * out-of-range read sets a sticky fail flag and returns zero instead
 * of crashing, so a truncated or corrupted store entry degrades into
 * a cache miss (the caller checks ok() once at the end) rather than
 * undefined behavior. Encoding is explicitly little-endian
 * byte-by-byte, independent of host endianness.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace lvpsim
{

/** FNV-1a 64-bit hash (used for store keys and payload checksums). */
constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t
fnv1a64(const void *data, std::size_t n,
        std::uint64_t h = kFnvOffsetBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::string &s, std::uint64_t h = kFnvOffsetBasis)
{
    return fnv1a64(s.data(), s.size(), h);
}

/**
 * The shared field spelling. BinWriter and BinReader have the same
 * field methods (u8 ... u64, i8, i64, b, f64, vec, check), so one
 * `template <class Ar> void io(Ar &ar, T &t)` body both encodes and
 * decodes a type: the writer reads each named field, the reader
 * assigns it. Read-side validation goes through check(), which only
 * the reader acts on; `Ar::reads` tells the two apart where a codec
 * must (docs/architecture.md, "Checkpointed state").
 */
template <typename T>
concept WireInt = std::is_integral_v<T> || std::is_enum_v<T>;

/** Append-only little-endian encoder. */
class BinWriter
{
  public:
    static constexpr bool reads = false;

    template <WireInt T>
    void
    u8(T v)
    {
        buf.push_back(static_cast<std::uint8_t>(v));
    }

    template <WireInt T>
    void
    u16(T v)
    {
        const auto x = static_cast<std::uint16_t>(v);
        u8(x);
        u8(x >> 8);
    }

    template <WireInt T>
    void
    u32(T v)
    {
        const auto x = static_cast<std::uint32_t>(v);
        u16(x);
        u16(x >> 16);
    }

    template <WireInt T>
    void
    u64(T v)
    {
        const auto x = static_cast<std::uint64_t>(v);
        u32(x);
        u32(x >> 32);
    }

    template <WireInt T>
    void
    i8(T v)
    {
        u8(static_cast<std::int8_t>(v));
    }

    template <WireInt T>
    void
    i64(T v)
    {
        u64(static_cast<std::int64_t>(v));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof bits == sizeof v, "double is 64-bit");
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf.insert(buf.end(), p, p + n);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** A length-prefixed vector, each element through @p field. */
    template <typename V, typename Field>
    void
    vec(V &v, std::size_t /* minBytesPerElem */, Field field)
    {
        u64(v.size());
        for (auto &&e : v)
            field(*this, e);
    }

    /** Read-side validation; nothing to check when writing. */
    void check(bool) {}

    const std::vector<std::uint8_t> &buffer() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }
    std::size_t size() const { return buf.size(); }

  private:
    std::vector<std::uint8_t> buf;
};

/** Bounds-checked little-endian decoder over a read-only span. */
class BinReader
{
  public:
    static constexpr bool reads = true;

    BinReader(const void *data, std::size_t size)
        : base(static_cast<const std::uint8_t *>(data)), len(size)
    {
    }

    explicit BinReader(const std::vector<std::uint8_t> &v)
        : BinReader(v.data(), v.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (pos + 1 > len) {
            failed = true;
            return 0;
        }
        return base[pos++];
    }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (std::uint16_t(u8()) << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        return lo | (std::uint32_t(u16()) << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | (std::uint64_t(u32()) << 32);
    }

    std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            failed = true;
        return v == 1;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    // The field spelling: each reads into its argument.
    template <WireInt T> void u8(T &v) { v = static_cast<T>(u8()); }
    template <WireInt T> void u16(T &v) { v = static_cast<T>(u16()); }
    template <WireInt T> void u32(T &v) { v = static_cast<T>(u32()); }
    template <WireInt T> void u64(T &v) { v = static_cast<T>(u64()); }
    template <WireInt T> void i8(T &v) { v = static_cast<T>(i8()); }
    template <WireInt T> void i64(T &v) { v = static_cast<T>(i64()); }
    void b(bool &v) { v = b(); }
    void b(std::vector<bool>::reference v) { v = b(); }
    void f64(double &v) { v = f64(); }

    bool
    bytes(void *out, std::size_t n)
    {
        if (pos + n > len || pos + n < pos) {
            failed = true;
            return false;
        }
        std::memcpy(out, base + pos, n);
        pos += n;
        return true;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (failed || n > remaining()) {
            failed = true;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(base + pos),
                      static_cast<std::size_t>(n));
        pos += static_cast<std::size_t>(n);
        return s;
    }

    /**
     * Read an element count that will drive a container resize.
     * Rejects counts that could not possibly fit in the remaining
     * payload (each element occupies >= @p minBytesPerElem encoded
     * bytes), bounding allocations by the file size even when the
     * length field itself is corrupt.
     */
    std::size_t
    count(std::size_t minBytesPerElem = 1)
    {
        const std::uint64_t n = u64();
        if (failed || minBytesPerElem == 0 ||
            n > remaining() / minBytesPerElem) {
            failed = true;
            return 0;
        }
        return static_cast<std::size_t>(n);
    }

    /** A length-prefixed vector (see BinWriter::vec); the count is
     *  bounded by count(@p minBytesPerElem). */
    template <typename V, typename Field>
    void
    vec(V &v, std::size_t minBytesPerElem, Field field)
    {
        const std::size_t n = count(minBytesPerElem);
        v.clear();
        v.resize(n);
        for (auto &&e : v) {
            field(*this, e);
            if (failed)
                return;
        }
    }

    /** Mark the stream corrupt unless @p valid (semantic checks). */
    void
    check(bool valid)
    {
        if (!valid)
            failed = true;
    }

    /** Mark the stream corrupt (semantic validation failed). */
    void fail() { failed = true; }

    bool ok() const { return !failed; }
    std::size_t remaining() const { return len - pos; }
    std::size_t offset() const { return pos; }
    bool atEnd() const { return pos == len; }

  private:
    const std::uint8_t *base;
    std::size_t len;
    std::size_t pos = 0;
    bool failed = false;
};

} // namespace lvpsim

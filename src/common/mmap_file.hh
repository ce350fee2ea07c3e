/**
 * @file
 * POSIX file utilities for the on-disk checkpoint store
 * (docs/performance.md): read-only memory mapping, atomic
 * write-then-rename publication, O_EXCL claim files for
 * cross-process build-once, and the small directory helpers the
 * store's LRU trim needs.
 *
 * Everything here degrades instead of throwing: a file that cannot
 * be opened, mapped, or written yields an invalid object / false
 * return, and the store treats that as a miss. Only the std
 * filesystem-free POSIX surface is used so the utilities stay cheap
 * to include from src/common.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lvpsim
{

/** A read-only mmap of an entire file. Invalid when open failed. */
class MappedFile
{
  public:
    MappedFile() = default;
    ~MappedFile() { reset(); }

    MappedFile(MappedFile &&other) noexcept
        : addr(other.addr), len(other.len)
    {
        other.addr = nullptr;
        other.len = 0;
    }

    MappedFile &
    operator=(MappedFile &&other) noexcept
    {
        if (this != &other) {
            reset();
            addr = other.addr;
            len = other.len;
            other.addr = nullptr;
            other.len = 0;
        }
        return *this;
    }

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** Map @p path read-only; returns an invalid object on failure. */
    static MappedFile open(const std::string &path);

    /** True when a non-empty file is mapped. */
    bool valid() const { return addr != nullptr; }

    const std::uint8_t *
    data() const
    {
        return static_cast<const std::uint8_t *>(addr);
    }

    std::size_t size() const { return len; }

    void reset();

  private:
    void *addr = nullptr;
    std::size_t len = 0;
};

/**
 * Write @p n bytes to @p path atomically: the data lands in a
 * uniquely named temp file in the same directory, is fsync'd, and is
 * rename(2)d over the target, so readers only ever observe either no
 * file or the complete file.
 */
bool atomicWriteFile(const std::string &path, const void *data,
                     std::size_t n);

/** mkdir -p. True when the directory exists on return. */
bool makeDirs(const std::string &path);

/** Seconds component of @p path's mtime, or -1 when missing. */
std::int64_t fileMtime(const std::string &path);

/** Best-effort: bump @p path's mtime to now (for LRU recency). */
void touchFile(const std::string &path);

/** unlink(2); true on success. */
bool removeFile(const std::string &path);

/** One regular file inside a store directory listing. */
struct DirEntry
{
    std::string name;         ///< basename, not the full path
    std::uint64_t sizeBytes;
    std::int64_t mtimeSec;
};

/** Regular files directly inside @p path (no recursion, no order). */
std::vector<DirEntry> listDir(const std::string &path);

/** Wall-clock seconds since the epoch (for claim-file staleness). */
std::int64_t wallClockSeconds();

/**
 * A cross-process claim on a store key: created with
 * O_CREAT|O_EXCL, so exactly one process acquires it; the owner
 * unlinks it on release (or destruction). Losers poll for the claim
 * to disappear and break claims whose mtime is older than a
 * staleness bound (a crashed owner must not wedge every later run).
 */
class ClaimFile
{
  public:
    ClaimFile() = default;
    ~ClaimFile() { release(); }

    ClaimFile(ClaimFile &&other) noexcept : path(std::move(other.path))
    {
        other.path.clear();
    }

    ClaimFile &
    operator=(ClaimFile &&other) noexcept
    {
        if (this != &other) {
            release();
            path = std::move(other.path);
            other.path.clear();
        }
        return *this;
    }

    ClaimFile(const ClaimFile &) = delete;
    ClaimFile &operator=(const ClaimFile &) = delete;

    /** Try to create @p claimPath exclusively. */
    static ClaimFile tryAcquire(const std::string &claimPath);

    bool owned() const { return !path.empty(); }

    /** Unlink the claim (idempotent). */
    void release();

  private:
    std::string path; ///< empty when not owned
};

} // namespace lvpsim

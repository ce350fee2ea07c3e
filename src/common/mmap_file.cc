#include "common/mmap_file.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <ctime>

namespace lvpsim
{

MappedFile
MappedFile::open(const std::string &path)
{
    MappedFile mf;
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return mf;
    struct stat st;
    if (fstat(fd, &st) != 0 || !S_ISREG(st.st_mode) || st.st_size <= 0) {
        ::close(fd);
        return mf;
    }
    const auto sz = static_cast<std::size_t>(st.st_size);
    void *p = mmap(nullptr, sz, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED)
        return mf;
    mf.addr = p;
    mf.len = sz;
    return mf;
}

void
MappedFile::reset()
{
    if (addr != nullptr) {
        munmap(addr, len);
        addr = nullptr;
        len = 0;
    }
}

bool
atomicWriteFile(const std::string &path, const void *data, std::size_t n)
{
    // Unique temp name in the target directory so rename(2) stays
    // within one filesystem (and is therefore atomic).
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0)
        return false;

    const auto *p = static_cast<const unsigned char *>(data);
    std::size_t off = 0;
    bool ok = true;
    while (off < n) {
        const ssize_t w = ::write(fd, p + off, n - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        off += static_cast<std::size_t>(w);
    }
    if (ok && fsync(fd) != 0)
        ok = false;
    ::close(fd);
    if (ok && std::rename(tmp.c_str(), path.c_str()) != 0)
        ok = false;
    if (!ok)
        ::unlink(tmp.c_str());
    return ok;
}

bool
makeDirs(const std::string &path)
{
    if (path.empty())
        return false;
    std::string cur;
    std::size_t i = 0;
    while (i < path.size()) {
        std::size_t next = path.find('/', i + 1);
        if (next == std::string::npos)
            next = path.size();
        cur = path.substr(0, next);
        if (!cur.empty() && cur != "/" &&
            mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
            return false;
        }
        i = next;
    }
    struct stat st;
    return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::int64_t
fileMtime(const std::string &path)
{
    struct stat st;
    if (stat(path.c_str(), &st) != 0)
        return -1;
    return static_cast<std::int64_t>(st.st_mtime);
}

void
touchFile(const std::string &path)
{
    // utimensat with UTIME_NOW avoids an explicit wall-clock read.
    const struct timespec times[2] = {{0, UTIME_NOW}, {0, UTIME_NOW}};
    utimensat(AT_FDCWD, path.c_str(), times, 0);
}

bool
removeFile(const std::string &path)
{
    return ::unlink(path.c_str()) == 0;
}

std::vector<DirEntry>
listDir(const std::string &path)
{
    std::vector<DirEntry> out;
    DIR *d = opendir(path.c_str());
    if (d == nullptr)
        return out;
    while (struct dirent *e = readdir(d)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        struct stat st;
        const std::string full = path + "/" + name;
        if (stat(full.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;
        out.push_back({name, static_cast<std::uint64_t>(st.st_size),
                       static_cast<std::int64_t>(st.st_mtime)});
    }
    closedir(d);
    return out;
}

std::int64_t
wallClockSeconds()
{
    // Feeds only claim-file staleness decisions (never simulation
    // results), so the wall-clock read is deterministic-output safe.
    // lvplint: allow(determinism) -- claim staleness needs wall time
    return static_cast<std::int64_t>(time(nullptr));
}

ClaimFile
ClaimFile::tryAcquire(const std::string &claimPath)
{
    ClaimFile cf;
    const int fd = ::open(claimPath.c_str(),
                          O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd < 0)
        return cf;
    // Content is advisory (debugging aid); staleness uses mtime.
    const std::string pid = std::to_string(::getpid()) + "\n";
    ssize_t w = ::write(fd, pid.data(), pid.size());
    (void)w;
    ::close(fd);
    cf.path = claimPath;
    return cf;
}

void
ClaimFile::release()
{
    if (!path.empty()) {
        ::unlink(path.c_str());
        path.clear();
    }
}

} // namespace lvpsim

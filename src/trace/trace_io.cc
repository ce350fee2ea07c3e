#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace lvpsim
{
namespace trace
{

namespace
{

constexpr char magic[4] = {'L', 'V', 'P', 'T'};

/** On-disk record: fixed 40 bytes, little endian. */
struct Record
{
    std::uint64_t pc;
    std::uint64_t effAddr;
    std::uint64_t memValue;
    std::uint64_t target;
    std::uint8_t cls;
    std::uint8_t dst;      // 0xff = none
    std::uint8_t src[3];   // 0xff = none
    std::uint8_t memSize;
    std::uint8_t flags;    // bit0 taken, bit1 exclusive
    std::uint8_t pad;
};

static_assert(sizeof(Record) == 40, "trace record layout changed");

Record
pack(const MicroOp &op)
{
    Record r{};
    r.pc = op.pc;
    r.effAddr = op.effAddr;
    r.memValue = op.memValue;
    r.target = op.target;
    r.cls = std::uint8_t(op.cls);
    r.dst = op.dst == invalidReg ? 0xff : std::uint8_t(op.dst);
    for (int i = 0; i < 3; ++i)
        r.src[i] = op.src[i] == invalidReg ? 0xff
                                           : std::uint8_t(op.src[i]);
    r.memSize = op.memSize;
    r.flags = (op.taken ? 1 : 0) | (op.exclusiveMem ? 2 : 0);
    return r;
}

MicroOp
unpack(const Record &r)
{
    MicroOp op;
    op.pc = r.pc;
    op.effAddr = r.effAddr;
    op.memValue = r.memValue;
    op.target = r.target;
    op.cls = OpClass(r.cls);
    op.dst = r.dst == 0xff ? invalidReg : RegId(r.dst);
    for (int i = 0; i < 3; ++i)
        op.src[i] = r.src[i] == 0xff ? invalidReg : RegId(r.src[i]);
    op.memSize = r.memSize;
    op.taken = (r.flags & 1) != 0;
    op.exclusiveMem = (r.flags & 2) != 0;
    return op;
}

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnvPrime = 0x100000001b3ull;

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= fnvPrime;
    }
    return h;
}

} // anonymous namespace

bool
writeTrace(std::ostream &os, const std::vector<MicroOp> &ops)
{
    os.write(magic, 4);
    const std::uint32_t version = traceFormatVersion;
    const std::uint64_t count = ops.size();
    os.write(reinterpret_cast<const char *>(&version),
             sizeof(version));
    os.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const auto &op : ops) {
        const Record r = pack(op);
        os.write(reinterpret_cast<const char *>(&r), sizeof(r));
    }
    return bool(os);
}

bool
readTrace(std::istream &is, std::vector<MicroOp> &ops,
          std::string *error)
{
    auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    char m[4];
    is.read(m, 4);
    if (!is || std::memcmp(m, magic, 4) != 0)
        return fail("bad magic (not an LVPT trace)");
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    is.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!is)
        return fail("truncated header");
    if (version != traceFormatVersion)
        return fail("unsupported trace version");
    ops.clear();
    ops.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        Record r;
        is.read(reinterpret_cast<char *>(&r), sizeof(r));
        if (!is)
            return fail("truncated record stream");
        if (r.cls > std::uint8_t(OpClass::Nop))
            return fail("corrupt record (bad op class)");
        ops.push_back(unpack(r));
    }
    return true;
}

bool
saveTraceFile(const std::string &path,
              const std::vector<MicroOp> &ops)
{
    std::ofstream os(path, std::ios::binary);
    return os && writeTrace(os, ops);
}

bool
loadTraceFile(const std::string &path, std::vector<MicroOp> &ops,
              std::string *error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open file";
        return false;
    }
    return readTrace(is, ops, error);
}

std::uint64_t
hashTrace(const std::vector<MicroOp> &ops)
{
    // Hash canonical field values, never raw struct bytes: padding
    // would make the hash compiler-dependent.
    std::uint64_t h = fnvMix(fnvOffset, ops.size());
    for (const MicroOp &op : ops) {
        h = fnvMix(h, op.pc);
        h = fnvMix(h, std::uint64_t(op.cls));
        h = fnvMix(h, op.dst);
        for (RegId s : op.src)
            h = fnvMix(h, s);
        h = fnvMix(h, op.effAddr);
        h = fnvMix(h, op.memSize);
        h = fnvMix(h, op.memValue);
        h = fnvMix(h, (op.exclusiveMem ? 2u : 0u) |
                          (op.taken ? 1u : 0u));
        h = fnvMix(h, op.target);
    }
    return h;
}

std::string
debugString(const MicroOp &op)
{
    std::ostringstream os;
    os << std::hex;
    os << "pc=0x" << op.pc;
    os << std::dec << " cls=" << unsigned(op.cls) << " dst=";
    if (op.dst == invalidReg)
        os << "-";
    else
        os << op.dst;
    os << " src=";
    for (std::size_t i = 0; i < op.src.size(); ++i) {
        if (i)
            os << ",";
        if (op.src[i] == invalidReg)
            os << "-";
        else
            os << op.src[i];
    }
    os << " ea=0x" << std::hex << op.effAddr;
    os << std::dec << " sz=" << unsigned(op.memSize);
    os << " val=0x" << std::hex << op.memValue;
    os << std::dec << " excl=" << (op.exclusiveMem ? 1 : 0);
    os << " taken=" << (op.taken ? 1 : 0);
    os << " tgt=0x" << std::hex << op.target;
    return os.str();
}

} // namespace trace
} // namespace lvpsim

#include "trace/cvp_trace.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#ifdef LVPSIM_HAVE_ZLIB
#include <zlib.h>
#endif

namespace lvpsim
{
namespace trace
{

namespace
{

// A record can name at most 3 inputs + 1 output (+ flags) in real
// CVP-1 traces; anything past this bound means we lost framing.
constexpr unsigned maxRegsPerSide = 8;

bool
getBytes(std::istream &is, unsigned char *buf, std::size_t n)
{
    is.read(reinterpret_cast<char *>(buf), std::streamsize(n));
    return is.gcount() == std::streamsize(n);
}

bool
getU8(std::istream &is, std::uint8_t &v)
{
    unsigned char b;
    if (!getBytes(is, &b, 1))
        return false;
    v = b;
    return true;
}

bool
getU64(std::istream &is, std::uint64_t &v)
{
    unsigned char b[8];
    if (!getBytes(is, b, 8))
        return false;
    v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(b[i]) << (8 * i);
    return true;
}

void
putU8(std::ostream &os, std::uint8_t v)
{
    os.put(char(v));
}

void
putU64(std::ostream &os, std::uint64_t v)
{
    char b[8];
    for (unsigned i = 0; i < 8; ++i)
        b[i] = char((v >> (8 * i)) & 0xff);
    os.write(b, 8);
}

bool
needsTarget(CvpInstClass c, bool taken)
{
    return (c == CvpInstClass::CondBranch && taken) ||
           c == CvpInstClass::UncondDirect ||
           c == CvpInstClass::UncondIndirect;
}

OpClass
importClass(CvpInstClass c, bool taken)
{
    switch (c) {
      case CvpInstClass::Alu: return OpClass::IntAlu;
      case CvpInstClass::Load: return OpClass::Load;
      case CvpInstClass::Store: return OpClass::Store;
      case CvpInstClass::CondBranch: return OpClass::Branch;
      // Direct unconditionals surface as always-taken branches: the
      // format does not distinguish calls, so the RAS-relevant
      // classes cannot be recovered.
      case CvpInstClass::UncondDirect: return OpClass::Branch;
      case CvpInstClass::UncondIndirect: return OpClass::IndirBr;
      case CvpInstClass::Fp: return OpClass::FpAlu;
      case CvpInstClass::SlowAlu: return OpClass::IntMul;
      case CvpInstClass::Undef: return OpClass::Nop;
    }
    (void)taken;
    return OpClass::Nop;
}

std::uint8_t
clampMemSize(std::uint8_t size)
{
    return std::uint8_t(std::min<unsigned>(std::max<unsigned>(size, 1), 8));
}

} // anonymous namespace

CvpInstClass
cvpClassOf(OpClass c)
{
    switch (c) {
      case OpClass::IntAlu: return CvpInstClass::Alu;
      case OpClass::IntMul: return CvpInstClass::SlowAlu;
      case OpClass::IntDiv: return CvpInstClass::SlowAlu;
      case OpClass::FpAlu: return CvpInstClass::Fp;
      case OpClass::Load: return CvpInstClass::Load;
      case OpClass::Store: return CvpInstClass::Store;
      case OpClass::Branch: return CvpInstClass::CondBranch;
      case OpClass::Call: return CvpInstClass::UncondDirect;
      case OpClass::Ret: return CvpInstClass::UncondIndirect;
      case OpClass::IndirBr: return CvpInstClass::UncondIndirect;
      case OpClass::Barrier: return CvpInstClass::Alu;
      case OpClass::Nop: return CvpInstClass::Undef;
    }
    return CvpInstClass::Undef;
}

bool
readCvpTrace(std::istream &is, std::vector<MicroOp> &ops,
             std::string *error, std::size_t max_records)
{
    auto fail = [&](const char *why) {
        if (error)
            *error = why;
        return false;
    };
    ops.clear();
    while (!max_records || ops.size() < max_records) {
        // A clean end of stream is only legal at a record boundary.
        std::uint64_t pc;
        {
            unsigned char first;
            is.read(reinterpret_cast<char *>(&first), 1);
            if (is.gcount() == 0)
                break; // end of stream
            unsigned char rest[7];
            if (!getBytes(is, rest, 7))
                return fail("truncated record (mid-PC)");
            pc = first;
            for (unsigned i = 0; i < 7; ++i)
                pc |= std::uint64_t(rest[i]) << (8 * (i + 1));
        }
        std::uint8_t clsByte;
        if (!getU8(is, clsByte))
            return fail("truncated record (missing class)");
        if (clsByte >= numCvpInstClasses)
            return fail("corrupt record (bad instruction class)");
        const auto cvpCls = CvpInstClass(clsByte);

        MicroOp op;
        op.pc = pc;

        if (cvpCls == CvpInstClass::Load ||
            cvpCls == CvpInstClass::Store) {
            std::uint64_t ea;
            std::uint8_t size;
            if (!getU64(is, ea) || !getU8(is, size))
                return fail("truncated record (memory fields)");
            op.effAddr = ea;
            op.memSize = clampMemSize(size);
        }

        bool taken = true; // unconditional classes are always taken
        if (cvpCls == CvpInstClass::CondBranch) {
            std::uint8_t t;
            if (!getU8(is, t))
                return fail("truncated record (branch outcome)");
            taken = t != 0;
        }
        if (needsTarget(cvpCls, taken)) {
            std::uint64_t target;
            if (!getU64(is, target))
                return fail("truncated record (branch target)");
            op.target = target;
        } else if (cvpCls == CvpInstClass::CondBranch) {
            // Fall-through; the format assumes 4-byte instructions.
            op.target = pc + 4;
        }

        std::uint8_t nIn;
        if (!getU8(is, nIn))
            return fail("truncated record (input register count)");
        if (nIn > maxRegsPerSide)
            return fail("corrupt record (implausible input register "
                        "count)");
        unsigned srcIdx = 0;
        for (unsigned i = 0; i < nIn; ++i) {
            std::uint8_t reg;
            if (!getU8(is, reg))
                return fail("truncated record (input register)");
            // Flags/zero registers (and any id past our 64-entry
            // file) do not map onto MicroOp sources; extras beyond
            // three are dropped too.
            if (reg < numArchRegs && srcIdx < op.src.size())
                op.src[srcIdx++] = RegId(reg);
        }

        std::uint8_t nOut;
        if (!getU8(is, nOut))
            return fail("truncated record (output register count)");
        if (nOut > maxRegsPerSide)
            return fail("corrupt record (implausible output register "
                        "count)");
        std::uint8_t outRegs[maxRegsPerSide];
        for (unsigned i = 0; i < nOut; ++i) {
            if (!getU8(is, outRegs[i]))
                return fail("truncated record (output register)");
        }
        for (unsigned i = 0; i < nOut; ++i) {
            std::uint64_t lo;
            if (!getU64(is, lo))
                return fail("truncated record (output value)");
            if (outRegs[i] >= cvpFirstSimdReg &&
                outRegs[i] < cvpFlagsReg) {
                std::uint64_t hi;
                if (!getU64(is, hi))
                    return fail("truncated record (SIMD value high "
                                "half)");
            }
            if (op.dst == invalidReg && outRegs[i] < numArchRegs) {
                op.dst = RegId(outRegs[i]);
                if (cvpCls == CvpInstClass::Load)
                    op.memValue = lo;
            }
        }

        op.cls = importClass(cvpCls, taken);
        if (isControl(op.cls))
            op.taken = taken;
        ops.push_back(op);
    }
    return true;
}

bool
writeCvpTrace(std::ostream &os, const std::vector<MicroOp> &ops)
{
    for (const MicroOp &op : ops) {
        const CvpInstClass cls = cvpClassOf(op.cls);
        putU64(os, op.pc);
        putU8(os, std::uint8_t(cls));
        if (cls == CvpInstClass::Load || cls == CvpInstClass::Store) {
            putU64(os, op.effAddr);
            putU8(os, clampMemSize(op.memSize));
        }
        // Our Call/Ret/IndirBr map to unconditional classes, which
        // are taken by definition.
        const bool taken =
            cls == CvpInstClass::CondBranch ? op.taken : true;
        if (cls == CvpInstClass::CondBranch)
            putU8(os, taken ? 1 : 0);
        if (needsTarget(cls, taken))
            putU64(os, op.target);

        std::uint8_t srcs[3];
        std::uint8_t nIn = 0;
        for (RegId s : op.src) {
            if (s != invalidReg)
                srcs[nIn++] = std::uint8_t(s);
        }
        putU8(os, nIn);
        for (unsigned i = 0; i < nIn; ++i)
            putU8(os, srcs[i]);

        if (op.dst != invalidReg) {
            putU8(os, 1);
            putU8(os, std::uint8_t(op.dst));
            putU64(os, op.cls == OpClass::Load ? op.memValue : 0);
            if (op.dst >= cvpFirstSimdReg)
                putU64(os, 0); // high half of the 16-byte SIMD value
        } else {
            putU8(os, 0);
        }
    }
    return bool(os);
}

MicroOp
cvpProjection(const MicroOp &op)
{
    MicroOp p;
    p.pc = op.pc;
    const CvpInstClass cls = cvpClassOf(op.cls);
    const bool taken =
        cls == CvpInstClass::CondBranch ? op.taken : true;
    p.cls = importClass(cls, taken);
    p.dst = op.dst;
    // The format stores input registers as a compact list, so gaps
    // in the src array do not survive a round trip.
    p.src = {invalidReg, invalidReg, invalidReg};
    std::size_t nsrc = 0;
    for (RegId s : op.src) {
        if (s != invalidReg)
            p.src[nsrc++] = s;
    }
    if (cls == CvpInstClass::Load || cls == CvpInstClass::Store) {
        p.effAddr = op.effAddr;
        p.memSize = clampMemSize(op.memSize);
    }
    if (cls == CvpInstClass::Load && op.dst != invalidReg)
        p.memValue = op.memValue;
    if (isControl(p.cls)) {
        p.taken = taken;
        p.target = needsTarget(cls, taken) ? op.target : op.pc + 4;
    }
    return p;
}

bool
cvpGzipSupported()
{
#ifdef LVPSIM_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

namespace
{

#ifdef LVPSIM_HAVE_ZLIB
bool
gunzipFile(const std::string &path, std::string &out,
           std::string *error)
{
    gzFile gz = gzopen(path.c_str(), "rb");
    if (!gz) {
        if (error)
            *error = "cannot open file";
        return false;
    }
    char buf[1 << 16];
    int n;
    while ((n = gzread(gz, buf, sizeof(buf))) > 0)
        out.append(buf, std::size_t(n));
    const bool ok = n == 0;
    if (!ok && error)
        *error = "corrupt gzip stream";
    gzclose(gz);
    return ok;
}
#endif

bool
hasGzipMagic(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    unsigned char m[2];
    is.read(reinterpret_cast<char *>(m), 2);
    return is.gcount() == 2 && m[0] == 0x1f && m[1] == 0x8b;
}

} // anonymous namespace

bool
loadCvpTraceFile(const std::string &path, std::vector<MicroOp> &ops,
                 std::string *error, std::size_t max_records)
{
    if (hasGzipMagic(path)) {
#ifdef LVPSIM_HAVE_ZLIB
        std::string raw;
        if (!gunzipFile(path, raw, error))
            return false;
        std::istringstream is(raw);
        return readCvpTrace(is, ops, error, max_records);
#else
        if (error)
            *error = "gzip-compressed trace, but lvpsim was built "
                     "without zlib";
        return false;
#endif
    }
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open file";
        return false;
    }
    return readCvpTrace(is, ops, error, max_records);
}

bool
saveCvpTraceFile(const std::string &path,
                 const std::vector<MicroOp> &ops, bool gzip,
                 std::string *error)
{
    if (gzip) {
#ifdef LVPSIM_HAVE_ZLIB
        std::ostringstream os;
        if (!writeCvpTrace(os, ops)) {
            if (error)
                *error = "serialization failed";
            return false;
        }
        const std::string raw = os.str();
        gzFile gz = gzopen(path.c_str(), "wb");
        if (!gz) {
            if (error)
                *error = "cannot open file for writing";
            return false;
        }
        bool ok = true;
        if (!raw.empty())
            ok = gzwrite(gz, raw.data(), unsigned(raw.size())) ==
                 int(raw.size());
        ok = gzclose(gz) == Z_OK && ok;
        if (!ok && error)
            *error = "gzip write failed";
        return ok;
#else
        if (error)
            *error = "gzip output requested, but lvpsim was built "
                     "without zlib";
        return false;
#endif
    }
    std::ofstream os(path, std::ios::binary);
    if (!os) {
        if (error)
            *error = "cannot open file for writing";
        return false;
    }
    if (!writeCvpTrace(os, ops)) {
        if (error)
            *error = "write failed";
        return false;
    }
    return true;
}

} // namespace trace
} // namespace lvpsim

#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

namespace catchsim
{

namespace
{

constexpr char kMagic[6] = {'C', 'T', 'S', 'I', 'M', '\0'};
constexpr uint32_t kVersion = kTraceFormatVersion;

// Fixed record sizes the bounds checks are computed from. An op record
// is pc, memAddr-or-target, value (u64 each), then cls, dst, src[3],
// taken (one byte each).
constexpr uint64_t kHeaderBytes = sizeof(kMagic) + 4 + 8;
constexpr uint64_t kOpBytes = 3 * 8 + 6 * 1;
constexpr uint64_t kPageRecordBytes = 8 + kPageBytes;

// Format-level validity limits: OpClass tops out at Nop, and no
// supported configuration has more than 64 architectural registers
// (SimConfig::validate), so larger indices can only be corruption.
constexpr uint8_t kMaxOpClass = static_cast<uint8_t>(OpClass::Nop);
constexpr int8_t kMaxRegIndex = 63;

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool
put(std::FILE *f, T v)
{
    return std::fwrite(&v, sizeof(v), 1, f) == 1;
}

template <typename T>
bool
get(std::FILE *f, T *v)
{
    return std::fread(v, sizeof(*v), 1, f) == 1;
}

bool
regIndexOk(int8_t r)
{
    return r >= -1 && r <= kMaxRegIndex;
}

/** Packs @p op into exactly kOpBytes at @p out. */
void
encodeOpRecord(const MicroOp &op, uint8_t *out)
{
    std::memcpy(out, &op.pc, 8);
    std::memcpy(out + 8, &op.memAddr, 8);
    std::memcpy(out + 16, &op.value, 8);
    out[24] = static_cast<uint8_t>(op.cls);
    out[25] = static_cast<uint8_t>(op.dst);
    out[26] = static_cast<uint8_t>(op.src[0]);
    out[27] = static_cast<uint8_t>(op.src[1]);
    out[28] = static_cast<uint8_t>(op.src[2]);
    out[29] = op.taken ? 1 : 0;
}

/**
 * Unpacks one op record from @p in (kOpBytes long) into @p op. Returns
 * nullptr on success or a static defect description when a field is
 * outside the format's validity limits; @p op is unspecified then.
 */
const char *
decodeOpRecord(const uint8_t *in, MicroOp *op)
{
    std::memcpy(&op->pc, in, 8);
    std::memcpy(&op->memAddr, in + 8, 8);
    std::memcpy(&op->value, in + 16, 8);
    const uint8_t cls = in[24];
    op->dst = static_cast<int8_t>(in[25]);
    op->src[0] = static_cast<int8_t>(in[26]);
    op->src[1] = static_cast<int8_t>(in[27]);
    op->src[2] = static_cast<int8_t>(in[28]);
    if (cls > kMaxOpClass)
        return "invalid class byte";
    if (!regIndexOk(op->dst) || !regIndexOk(op->src[0]) ||
        !regIndexOk(op->src[1]) || !regIndexOk(op->src[2]))
        return "out-of-range register index";
    op->cls = static_cast<OpClass>(cls);
    op->taken = in[29] != 0;
    return nullptr;
}

} // namespace

Expected<void>
saveTrace(const Trace &trace, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return simError(ErrorCategory::Config, "cannot open '", path,
                        "' for writing");
    auto io_error = [&path]() {
        return simError(ErrorCategory::IoTransient, "write to '", path,
                        "' failed");
    };
    if (std::fwrite(kMagic, sizeof(kMagic), 1, f.get()) != 1 ||
        !put(f.get(), kVersion) ||
        !put(f.get(), static_cast<uint64_t>(trace.ops.size())))
        return io_error();
    uint8_t rec[kOpBytes];
    for (const MicroOp &op : trace.ops) {
        encodeOpRecord(op, rec);
        if (std::fwrite(rec, sizeof(rec), 1, f.get()) != 1)
            return io_error();
    }
    // Serialise the pages the trace actually references: the addresses
    // of every load/store, which is all the feeder will ever read.
    std::vector<Addr> pages;
    {
        // Collect distinct pages (small sets; a sort+unique suffices).
        pages.reserve(trace.ops.size());
        for (const MicroOp &op : trace.ops)
            if (op.isLoad() || op.isStore())
                pages.push_back(pageAddr(op.memAddr));
        std::sort(pages.begin(), pages.end());
        pages.erase(std::unique(pages.begin(), pages.end()),
                    pages.end());
    }
    if (!put(f.get(), static_cast<uint64_t>(pages.size())))
        return io_error();
    for (Addr page : pages) {
        if (!put(f.get(), page))
            return io_error();
        for (Addr a = page; a < page + kPageBytes; a += 8)
            if (!put(f.get(), trace.mem->read(a)))
                return io_error();
    }
    if (std::fflush(f.get()) != 0)
        return io_error();
    return {};
}

Expected<Trace>
loadTrace(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return simError(ErrorCategory::Config, "cannot open trace file '",
                        path, "'");

    // The file's true size bounds every count field before anything is
    // allocated or trusted: a bit-flipped count can neither reserve
    // gigabytes nor walk past the end of the data.
    if (std::fseek(f.get(), 0, SEEK_END) != 0)
        return simError(ErrorCategory::IoTransient, "cannot seek in '",
                        path, "'");
    long told = std::ftell(f.get());
    if (told < 0)
        return simError(ErrorCategory::IoTransient, "cannot size '",
                        path, "'");
    uint64_t file_size = static_cast<uint64_t>(told);
    std::rewind(f.get());

    auto corrupt = [&path](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, "trace file '",
                        path, "': ", what...);
    };

    if (file_size < kHeaderBytes)
        return corrupt("only ", file_size, " bytes, smaller than the ",
                       kHeaderBytes, "-byte header");
    char magic[6];
    uint32_t version = 0;
    uint64_t count = 0;
    if (std::fread(magic, sizeof(magic), 1, f.get()) != 1 ||
        std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return corrupt("bad header (magic mismatch)");
    if (!get(f.get(), &version) || version != kVersion)
        return corrupt("bad header (unsupported version ", version,
                       ", expected ", kVersion, ")");
    if (!get(f.get(), &count))
        return corrupt("bad header (missing op count)");
    uint64_t body = file_size - kHeaderBytes;
    if (count > body / kOpBytes)
        return corrupt("op count ", count, " needs ", count, " * ",
                       kOpBytes, " bytes but only ", body, " remain");

    Trace trace;
    trace.ops.reserve(count);
    uint8_t rec[kOpBytes];
    for (uint64_t i = 0; i < count; ++i) {
        if (std::fread(rec, sizeof(rec), 1, f.get()) != 1)
            return corrupt("truncated at op ", i, " of ", count);
        MicroOp op;
        if (const char *defect = decodeOpRecord(rec, &op))
            return corrupt("op ", i, ": ", defect);
        trace.ops.push_back(op);
    }

    uint64_t pages = 0;
    if (!get(f.get(), &pages))
        return corrupt("truncated before the page count");
    uint64_t page_body = file_size - kHeaderBytes - count * kOpBytes - 8;
    if (pages > page_body / kPageRecordBytes)
        return corrupt("page count ", pages, " needs ", pages, " * ",
                       kPageRecordBytes, " bytes but only ", page_body,
                       " remain");
    trace.mem = std::make_shared<FunctionalMemory>();
    for (uint64_t p = 0; p < pages; ++p) {
        Addr base = 0;
        if (!get(f.get(), &base))
            return corrupt("truncated at page ", p, " of ", pages);
        if (base != pageAddr(base))
            return corrupt("page ", p, " base ", base,
                           " is not page-aligned");
        for (Addr a = base; a < base + kPageBytes; a += 8) {
            uint64_t word = 0;
            if (!get(f.get(), &word))
                return corrupt("truncated inside page ", p, " of ",
                               pages);
            if (word)
                trace.mem->write(a, word);
        }
    }

    uint64_t expected =
        kHeaderBytes + count * kOpBytes + 8 + pages * kPageRecordBytes;
    if (file_size != expected)
        return corrupt(file_size - expected,
                       " trailing byte(s) after the last page");
    return trace;
}

} // namespace catchsim

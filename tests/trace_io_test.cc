/**
 * @file
 * Round-trip tests for the binary trace serialisation, plus the
 * validation layer of loadTrace(): every field a bit flip can
 * damage — magic, version, counts, op classes, register indices, page
 * alignment — must come back as a typed trace-corrupt SimError, never
 * a crash, an over-allocation or a silently wrong trace.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "trace/suite.hh"
#include "trace/trace_io.hh"

namespace catchsim
{
namespace
{

// On-disk layout constants mirrored from trace_io.cc (6-byte magic +
// u32 version + u64 op count header; 30-byte version-2 op records).
constexpr long kHeaderBytes = 6 + 4 + 8;
constexpr long kOpBytes = 3 * 8 + 6;
constexpr long kVersionOffset = 6;
constexpr long kCountOffset = 10;
constexpr long kOp0ClassOffset = kHeaderBytes + 24;
constexpr long kOp0DstOffset = kHeaderBytes + 25;

/** Writes a fresh serialised trace and returns its op count. */
uint64_t
writeTestTrace(const std::string &path, const char *workload = "mcf")
{
    auto wl = makeWorkload(workload);
    Trace t = wl->generate(2000);
    EXPECT_TRUE(saveTrace(t, path).ok());
    return t.ops.size();
}

void
patchByte(const std::string &path, long offset, unsigned char value)
{
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fputc(value, f), value);
    ASSERT_EQ(std::fclose(f), 0);
}

/** Expects a trace-corrupt error whose message mentions @p what. */
void
expectCorrupt(const std::string &path, const char *what)
{
    auto r = loadTrace(path);
    ASSERT_FALSE(r.ok()) << "must reject " << what;
    EXPECT_EQ(r.error().category, ErrorCategory::TraceCorrupt) << what;
    EXPECT_NE(r.error().message.find(what), std::string::npos)
        << "got: " << r.error().message;
}

TEST(TraceIo, RoundTripPreservesOpsAndMemory)
{
    auto wl = makeWorkload("mcf");
    Trace orig = wl->generate(5000);
    const std::string path = "/tmp/catchsim_roundtrip.trace";
    ASSERT_TRUE(saveTrace(orig, path).ok());
    auto loaded = loadTrace(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    const Trace back = std::move(loaded).value();
    ASSERT_EQ(back.ops.size(), orig.ops.size());
    for (size_t i = 0; i < orig.ops.size(); ++i) {
        EXPECT_EQ(back.ops[i].pc, orig.ops[i].pc);
        EXPECT_EQ(back.ops[i].cls, orig.ops[i].cls);
        EXPECT_EQ(back.ops[i].memAddr, orig.ops[i].memAddr);
        EXPECT_EQ(back.ops[i].value, orig.ops[i].value);
        EXPECT_EQ(back.ops[i].taken, orig.ops[i].taken);
        EXPECT_EQ(back.ops[i].dst, orig.ops[i].dst);
    }
    // Every referenced memory word survives (the feeder's view).
    for (const auto &op : orig.ops) {
        if (op.isLoad()) {
            EXPECT_EQ(back.mem->read(op.memAddr),
                      orig.mem->read(op.memAddr));
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIo, CorruptHeaderRejected)
{
    // Header-sized, so the magic check (not the size floor) trips.
    const std::string path = "/tmp/catchsim_bad.trace";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOTATRACE", f);
    for (long i = 9; i < kHeaderBytes + kOpBytes; ++i)
        std::fputc(0, f);
    std::fclose(f);
    expectCorrupt(path, "magic mismatch");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, MissingFileIsAConfigError)
{
    auto r = loadTrace("/tmp/definitely/not/here.trace");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().category, ErrorCategory::Config);
}

TEST(TraceIoChecked, ZeroLengthFileRejected)
{
    const std::string path = "/tmp/catchsim_empty.trace";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    expectCorrupt(path, "smaller than the");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, WrongVersionRejected)
{
    const std::string path = "/tmp/catchsim_version.trace";
    writeTestTrace(path);
    patchByte(path, kVersionOffset, 9);
    expectCorrupt(path, "unsupported version");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, BitFlippedOpClassRejected)
{
    const std::string path = "/tmp/catchsim_class.trace";
    writeTestTrace(path);
    patchByte(path, kOp0ClassOffset, 0xff);
    expectCorrupt(path, "invalid class");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, BitFlippedRegisterIndexRejected)
{
    const std::string path = "/tmp/catchsim_reg.trace";
    writeTestTrace(path);
    patchByte(path, kOp0DstOffset, 100); // > 63 architectural registers
    expectCorrupt(path, "out-of-range register");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, HugeOpCountIsBoundedByFileSize)
{
    // A flipped high byte of the count must be caught by the file-size
    // bound before anything is allocated or read.
    const std::string path = "/tmp/catchsim_count.trace";
    writeTestTrace(path);
    patchByte(path, kCountOffset + 7, 0xff);
    expectCorrupt(path, "op count");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, UnalignedPageBaseRejected)
{
    const std::string path = "/tmp/catchsim_page.trace";
    uint64_t ops = writeTestTrace(path); // mcf: guaranteed loads/stores
    // First page record sits right after the op array's u64 page count;
    // its base is 4K-aligned, so forcing the low byte on unaligns it.
    patchByte(path, kHeaderBytes + long(ops) * kOpBytes + 8, 0x01);
    expectCorrupt(path, "not page-aligned");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, TrailingBytesRejected)
{
    const std::string path = "/tmp/catchsim_trailing.trace";
    writeTestTrace(path);
    std::FILE *f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputc(0x5a, f);
    std::fclose(f);
    expectCorrupt(path, "trailing byte");
    std::remove(path.c_str());
}

TEST(TraceIoChecked, TruncationMidOpsNamesTheOp)
{
    const std::string path = "/tmp/catchsim_midtrunc.trace";
    writeTestTrace(path);
    ASSERT_EQ(truncate(path.c_str(), kHeaderBytes + kOpBytes + 10), 0);
    // The size bound trips first: the header's op count can no longer
    // fit in what remains of the file.
    expectCorrupt(path, "op count");
    std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFileRejected)
{
    auto wl = makeWorkload("hmmer");
    Trace orig = wl->generate(2000);
    const std::string path = "/tmp/catchsim_trunc.trace";
    ASSERT_TRUE(saveTrace(orig, path).ok());
    // Truncate to half.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
    auto r = loadTrace(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().category, ErrorCategory::TraceCorrupt)
        << r.error().message;
    std::remove(path.c_str());
}

} // namespace
} // namespace catchsim

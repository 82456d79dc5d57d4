/**
 * @file
 * The two store primitives, each pinned once through a minimal test
 * facade:
 *
 *  1. MemoLru, behind the chunk, warm-state and kernel-image stores —
 *     exact-budget eviction order, find() recency touches, the
 *     one-resident-value floor, first-writer-wins, and the
 *     sharing-aware charge (a part shared by resident values is
 *     charged once).
 *  2. RecordDir, behind the result store — every record defect
 *     (missing file, truncation, bit flip, magic, version skew, key
 *     mismatch, payload length, a payload the codec rejects) surfaces
 *     as the documented taxonomy, drops the bad record and reports a
 *     miss; an unwritable directory skips the record.
 *  3. Concurrency — threads sharing one evicting LRU, and threads and
 *     processes sharing one record directory, never see a wrong value
 *     or a torn record (the TSan CI job runs the *Concurrent* cases).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/content_store.hh"
#include "store_test_util.hh"

#include <sys/wait.h>
#include <unistd.h>

namespace catchsim
{
namespace
{

/** Test value: a byte string plus memory-only parts that other values
 *  may share (the role image layers play for warmed-state snapshots). */
struct Blob
{
    std::string bytes;
    std::vector<std::shared_ptr<const std::string>> parts;
};
using BlobPtr = std::shared_ptr<const Blob>;

/** Minimal LRU facade: a blob is charged its bytes plus its parts. */
class BlobLru : public MemoLru
{
  public:
    explicit BlobLru(size_t budget = size_t(1) << 20) : MemoLru(budget) {}

    BlobPtr
    get(const std::string &key)
    {
        return std::static_pointer_cast<const Blob>(find(key));
    }

    BlobPtr
    set(const std::string &key, Blob blob)
    {
        return std::static_pointer_cast<const Blob>(
            put(key, std::make_shared<const Blob>(std::move(blob))));
    }

  protected:
    size_t
    charge(const void *value, const PartFn &shared) const override
    {
        const Blob &b = *static_cast<const Blob *>(value);
        for (const auto &p : b.parts)
            shared(p.get(), p->size());
        return b.bytes.size();
    }
};

const RecordDir::Format kBlobFormat = {
    {'T', 'B', 'L', 'O', 'B', '\0'}, 3, ".blob", "blob"};

/** Minimal record facade: the payload is the blob's bytes; a payload
 *  starting with "BAD" is a codec-level defect. */
class BlobDir : public RecordDir
{
  public:
    explicit BlobDir(const std::string &dir) : RecordDir(kBlobFormat, dir)
    {
    }

    BlobPtr
    get(const std::string &key)
    {
        return std::static_pointer_cast<const Blob>(find(key));
    }

    void
    set(const std::string &key, const Blob &blob)
    {
        put(key, &blob);
    }

  protected:
    void
    encode(const void *value, std::vector<uint8_t> &out) const override
    {
        const std::string &b = static_cast<const Blob *>(value)->bytes;
        out.insert(out.end(), b.begin(), b.end());
    }

    Expected<Value>
    decode(const uint8_t *payload, size_t n) const override
    {
        std::string bytes(reinterpret_cast<const char *>(payload), n);
        if (bytes.rfind("BAD", 0) == 0)
            return simError(ErrorCategory::TraceCorrupt,
                            "payload defect");
        return Value(std::make_shared<const Blob>(Blob{bytes, {}}));
    }
};

/** A fresh, existing directory: the record directory's owner creates
 *  it. */
std::string
freshRecordDir(const std::string &name)
{
    const std::string dir = freshDir(name);
    std::filesystem::create_directories(dir);
    return dir;
}

Blob
blobOf(size_t n, char fill)
{
    return Blob{std::string(n, fill), {}};
}

std::string
keyOf(int n)
{
    return "key-" + std::to_string(n);
}

/** Deletes @p key's record from @p store's directory, if present. */
void
dropRecord(const BlobDir &store, const std::string &key)
{
    std::error_code ec;
    std::filesystem::remove(store.recordPath(key), ec);
}

/** Writes one record for keyOf(0) into @p dir; returns its path. */
std::string
writeOneRecord(const std::string &dir)
{
    BlobDir writer(dir);
    dropRecord(writer, keyOf(0));
    writer.set(keyOf(0), blobOf(512, 'r'));
    return writer.recordPath(keyOf(0));
}

/** Expects @p key's record to be rejected as corrupt with @p what in
 *  the message, then find() to miss, count it and drop the file. */
void
expectCorruptAndDropped(const std::string &dir, const std::string &key,
                        const std::string &what)
{
    BlobDir store(dir);
    const std::string path = store.recordPath(key);
    auto loaded = store.loadChecked(key);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(loaded.error().message.find(what), std::string::npos)
        << loaded.error().message;
    EXPECT_EQ(store.get(key), nullptr)
        << "corruption reports a miss so the caller re-derives";
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_FALSE(std::filesystem::exists(path))
        << "the bad record is dropped so the slot can be rewritten";
}

// -------------------------- MemoLru ------------------------------

TEST(MemoLru, FindMissesColdThenHitsAfterPutFirstWriterWins)
{
    BlobLru store;
    EXPECT_EQ(store.get(keyOf(0)), nullptr);
    auto put = store.set(keyOf(0), blobOf(256, 'a'));
    ASSERT_NE(put, nullptr);
    EXPECT_EQ(store.get(keyOf(0)), put)
        << "the resident value is shared, not copied";
    EXPECT_EQ(store.set(keyOf(0), blobOf(256, 'a')), put)
        << "a duplicate put returns the resident value";
    auto s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.puts, 1u) << "duplicates are not re-published";
    EXPECT_EQ(store.residentBytes(), 256u);
}

TEST(MemoLru, EvictsLeastRecentlyUsedAtExactBudget)
{
    constexpr size_t bytes = 256;
    BlobLru store(3 * bytes); // exactly three values
    for (int k = 0; k < 3; ++k)
        store.set(keyOf(k), blobOf(bytes, 'a'));
    EXPECT_EQ(store.stats().evictions, 0u)
        << "at budget is not over budget";
    EXPECT_EQ(store.residentBytes(), 3 * bytes);

    // Touch value 0: it becomes most-recent, value 1 the LRU victim.
    EXPECT_NE(store.get(keyOf(0)), nullptr);
    store.set(keyOf(3), blobOf(bytes, 'a'));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.residentBytes(), 3 * bytes);
    EXPECT_EQ(store.get(keyOf(1)), nullptr)
        << "the least-recently-used value is the victim";
    EXPECT_NE(store.get(keyOf(0)), nullptr);
    EXPECT_NE(store.get(keyOf(2)), nullptr);
    EXPECT_NE(store.get(keyOf(3)), nullptr);
}

TEST(MemoLru, BudgetFloorKeepsTheNewestValueResident)
{
    BlobLru store(1); // below a single value
    auto a = store.set(keyOf(0), blobOf(256, 'a'));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(store.residentBytes(), 256u)
        << "never evicted below one resident value";
    ASSERT_NE(store.set(keyOf(1), blobOf(256, 'b')), nullptr);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.get(keyOf(0)), nullptr);
    // Shared ownership keeps an evicted-then-reheld value valid.
    EXPECT_EQ(a->bytes.size(), 256u);
}

TEST(MemoLru, SharedPartsAreChargedOnce)
{
    // Two resident values share one part and each hold one of their
    // own: the shared bytes count once, evicting one value keeps them
    // charged for the survivor, and evicting both returns the charge
    // to zero — the image-layer accounting of warmed-state
    // snapshots, checked at the primitive.
    auto shared = std::make_shared<const std::string>(1000, 's');
    auto own_a = std::make_shared<const std::string>(100, 'a');
    auto own_b = std::make_shared<const std::string>(200, 'b');
    BlobLru store;
    store.set(keyOf(0), Blob{"xy", {shared, own_a}});
    EXPECT_EQ(store.residentBytes(), 2u + 1000 + 100);
    store.set(keyOf(1), Blob{"xyz", {shared, own_b}});
    EXPECT_EQ(store.residentBytes(), (2u + 1000 + 100) + (3 + 200))
        << "the shared part is charged once";

    store.remove(keyOf(0));
    EXPECT_EQ(store.residentBytes(), 3u + 1000 + 200)
        << "the survivor still holds the shared part";
    store.remove(keyOf(1));
    EXPECT_EQ(store.residentBytes(), 0u);

    // The same through LRU evictions: a budget that holds only one of
    // the two evicts the older, and the floor keeps the newer charged.
    BlobLru tight(1);
    tight.set(keyOf(0), Blob{"xy", {shared, own_a}});
    tight.set(keyOf(1), Blob{"xyz", {shared, own_b}});
    EXPECT_EQ(tight.stats().evictions, 1u);
    EXPECT_EQ(tight.residentBytes(), 3u + 1000 + 200);
    tight.set(keyOf(2), Blob{"", {}});
    EXPECT_EQ(tight.stats().evictions, 2u);
    EXPECT_EQ(tight.residentBytes(), 0u)
        << "evicting both sharers releases the shared part";
}

// ------------------------- RecordDir -----------------------------

TEST(RecordDir, RoundTripReadsTheRecordAndAbsenceIsAPlainMiss)
{
    const std::string dir = freshRecordDir("record_dir_roundtrip");
    EXPECT_TRUE(std::filesystem::exists(writeOneRecord(dir)));

    BlobDir reader(dir);
    auto loaded = reader.loadChecked(keyOf(0));
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    for (int i = 0; i < 2; ++i) {
        auto hit = reader.get(keyOf(0));
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->bytes, std::string(512, 'r'));
    }
    auto s = reader.stats();
    EXPECT_EQ(s.hits, 2u) << "every find() reads the record";
    EXPECT_EQ(s.corrupt, 0u);

    // A second put of a persisted key keeps the record it found.
    reader.set(keyOf(0), blobOf(8, 'x'));
    EXPECT_EQ(reader.get(keyOf(0))->bytes, std::string(512, 'r'));

    // Absence is a config-level miss, never data corruption.
    dropRecord(reader, keyOf(0));
    BlobDir cold(dir);
    auto missing = cold.loadChecked(keyOf(0));
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().category, ErrorCategory::Config);
    EXPECT_EQ(cold.get(keyOf(0)), nullptr);
    EXPECT_EQ(cold.stats().corrupt, 0u);
    EXPECT_EQ(cold.stats().misses, 1u);
    std::filesystem::remove_all(dir);
}

TEST(RecordDir, UnwritableDirectorySkipsTheRecord)
{
    // A path below a regular file cannot be written, even by root: the
    // put warns and the slot stays a plain miss.
    const std::string blocker = freshDir("record_dir_blocker");
    rewriteFile(blocker, {'x'});
    BlobDir store(blocker + "/nested");
    store.set(keyOf(0), blobOf(64, 'a'));
    EXPECT_EQ(store.stats().puts, 1u);
    EXPECT_EQ(store.get(keyOf(0)), nullptr);
    EXPECT_EQ(store.stats().corrupt, 0u);
    std::filesystem::remove(blocker);
}

TEST(RecordDir, TruncationAndBitFlipsAreCorruptAndDropped)
{
    // Below the frame floor the size check rejects a record before any
    // field is parsed; a milder truncation or a flipped bit anywhere
    // fails the whole-record checksum.
    const std::string dir = freshRecordDir("record_dir_truncated");
    const std::string path = writeOneRecord(dir);
    const std::vector<char> intact = readAll(path);
    std::vector<char> bytes(intact.begin(), intact.begin() + 10);
    rewriteFile(path, bytes);
    expectCorruptAndDropped(dir, keyOf(0), "truncated or foreign");

    bytes = intact;
    bytes.pop_back();
    rewriteFile(path, bytes);
    expectCorruptAndDropped(dir, keyOf(0), "FNV-1a checksum mismatch");

    bytes = intact;
    bytes[bytes.size() / 2] ^= 0x40; // one flipped bit mid-payload
    rewriteFile(path, bytes);
    expectCorruptAndDropped(dir, keyOf(0), "FNV-1a checksum mismatch");
    std::filesystem::remove_all(dir);
}

TEST(RecordDir, FrameDefectsBehindAValidChecksumAreCorrupt)
{
    // Each doctored record is resealed so only the targeted frame field
    // differs: the check after the checksum must still refuse it, never
    // hand the payload to the codec.
    struct Case
    {
        const char *what;
        size_t offset;
        uint8_t flip;
    };
    const std::string dir = freshRecordDir("record_dir_frame");
    const std::string path = writeOneRecord(dir);
    const size_t payload_len_at = payloadOffset(readAll(path)) - 8;
    for (const Case &c : {Case{"bad magic", 0, 0x01},
                          Case{"unsupported version", 6, 0x01},
                          Case{"does not match the requested key", 10,
                               0x01},
                          Case{"does not match the requested key", 14,
                               0x20},
                          Case{"disagrees with the record size",
                               payload_len_at, 0x01}}) {
        SCOPED_TRACE(c.what);
        writeOneRecord(dir);
        std::vector<char> bytes = readAll(path);
        bytes[c.offset] ^= static_cast<char>(c.flip);
        resealRecord(bytes);
        rewriteFile(path, bytes);
        expectCorruptAndDropped(dir, keyOf(0), c.what);
    }
    std::filesystem::remove_all(dir);
}

TEST(RecordDir, ForeignRecordAtTheWrongPathFailsTheKeyCheck)
{
    // A checksum-valid record renamed onto another key's path must be
    // rejected by the key echo, never served as that key's value.
    const std::string dir = freshRecordDir("record_dir_foreign");
    const std::string path0 = writeOneRecord(dir);
    BlobDir store(dir);
    std::filesystem::rename(path0, store.recordPath(keyOf(1)));
    expectCorruptAndDropped(dir, keyOf(1),
                            "does not match the requested key");
    std::filesystem::remove_all(dir);
}

TEST(RecordDir, PayloadTheCodecRejectsIsCorruptAndDropped)
{
    const std::string dir = freshRecordDir("record_dir_codec");
    const std::string path = writeOneRecord(dir);
    editPayload(path, [](std::vector<char> &p) { p.assign({'B', 'A', 'D'}); });
    expectCorruptAndDropped(dir, keyOf(0), "payload defect");
    std::filesystem::remove_all(dir);
}

// ------------------------ Concurrency ----------------------------

TEST(MemoLruConcurrent, ThreadsShareOneEvictingStore)
{
    // Eight threads publish and read overlapping keys through a store
    // whose budget holds two values: every read sees the canonical
    // value, and evictions race with finds and puts.
    BlobLru store(2 * 128);
    auto blob = [](int k) { return blobOf(128, char('a' + k % 6)); };
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&store, &blob, t] {
            for (int k = t; k < t + 50; ++k) {
                store.set(keyOf(k % 6), blob(k));
                if (auto got = store.get(keyOf((k + 1) % 6))) {
                    ASSERT_EQ(got->bytes, blob(k + 1).bytes);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_GT(store.stats().evictions, 0u);
}

TEST(RecordDirConcurrent, ThreadsShareOneDirectory)
{
    // Eight threads write, read and delete overlapping records in one
    // directory: every read sees the canonical value or a miss, and no
    // record is ever corrupt.
    const std::string dir = freshRecordDir("record_dir_threads");
    BlobDir store(dir);
    auto blob = [](int k) { return blobOf(128, char('a' + k % 6)); };
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&store, &blob, t] {
            for (int k = t; k < t + 50; ++k) {
                store.set(keyOf(k % 6), blob(k));
                if (auto got = store.get(keyOf((k + 1) % 6))) {
                    ASSERT_EQ(got->bytes, blob(k + 1).bytes);
                }
                if (k % 5 == 0)
                    dropRecord(store, keyOf((k + 2) % 6));
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(store.stats().corrupt, 0u);
    EXPECT_GT(store.stats().hits, 0u);
    std::filesystem::remove_all(dir);
}

TEST(RecordDirConcurrent, ProcessesSharingADirectoryNeverTearRecords)
{
    // Six processes rewrite and read the same eight records for 200
    // rounds. Temp names are unique per process as well as per thread,
    // so no writer ever renames another's half-written file into place:
    // readers see complete records or none, and no temp file survives.
    const std::string dir = freshRecordDir("record_dir_processes");
    constexpr int kProcs = 6, kKeys = 8, kRounds = 200;
    std::vector<pid_t> kids;
    for (int p = 0; p < kProcs; ++p) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            BlobDir store(dir);
            int wrong = 0;
            for (int round = 0; round < kRounds; ++round) {
                for (int k = 0; k < kKeys; ++k) {
                    const Blob want = blobOf(4096 + 64 * k,
                                             static_cast<char>('a' + k));
                    dropRecord(store, keyOf(k));
                    store.set(keyOf(k), want);
                    auto got = store.get(keyOf(k));
                    wrong += got && got->bytes != want.bytes;
                }
            }
            const uint64_t bad = store.stats().corrupt + wrong;
            ::_exit(bad > 100 ? 100 : static_cast<int>(bad));
        }
        kids.push_back(pid);
    }
    for (pid_t pid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0)
            << "corrupt or wrong reads in one writer process";
    }
    for (const auto &e : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(e.path().filename().string().find(".tmp"),
                  std::string::npos)
            << "leftover temp file " << e.path();
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace catchsim

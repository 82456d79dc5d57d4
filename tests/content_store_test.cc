/**
 * @file
 * The ContentStore primitive behind the chunk, warm-state and result
 * stores, pinned once through a minimal test facade:
 *
 *  1. LRU mechanics — exact-budget eviction order, find() recency
 *     touches, the one-resident-value floor, first-writer-wins, a zero
 *     budget turning the memory tier off, and the sharing-aware charge
 *     (a part shared by resident values is charged once).
 *  2. Disk-tier validation — every defect (missing file, truncation,
 *     bit flip, magic, version skew, key mismatch, payload length, a
 *     payload the codec rejects, injected faults) surfaces as the
 *     documented taxonomy, drops the bad record and reports a miss.
 *  3. Concurrency — threads sharing one evicting disk-backed store, and
 *     processes sharing one disk tier, never see a torn record (the
 *     TSan CI job runs the *Concurrent* cases).
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
 *  may share (the role COW pages play for warmed-state snapshots). */
struct Blob
{
    std::string bytes;
    std::vector<std::shared_ptr<const std::string>> parts;
};
using BlobPtr = std::shared_ptr<const Blob>;

const ContentStore::Format kBlobFormat = {
    {'T', 'B', 'L', 'O', 'B', '\0'}, 3, ".blob", "blob",
    FaultKind::StateCorrupt,         "blob-store"};

/** Minimal facade: the payload is the blob's bytes (parts stay in
 *  memory); a payload starting with "BAD" is a codec-level defect. */
class BlobStore : public ContentStore
{
  public:
    explicit BlobStore(Config cfg,
                       const ContentStore::Format &fmt = kBlobFormat)
        : ContentStore(fmt, std::move(cfg))
    {
    }

    BlobPtr
    get(const std::string &key, const char *fault_target = nullptr)
    {
        return std::static_pointer_cast<const Blob>(find(key, fault_target));
    }

    BlobPtr
    set(const std::string &key, Blob blob)
    {
        return std::static_pointer_cast<const Blob>(
            put(key, std::make_shared<const Blob>(std::move(blob))));
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

    size_t
    charge(const void *value, const PartFn &shared) const override
    {
        const Blob &b = *static_cast<const Blob *>(value);
        for (const auto &p : b.parts)
            shared(p.get(), p->size());
        return b.bytes.size();
    }
};

ContentStore::Config
memoryTier(size_t budget = size_t(1) << 20)
{
    ContentStore::Config cfg;
    cfg.memBudgetBytes = budget;
    return cfg;
}

ContentStore::Config
diskTier(const std::string &dir, size_t budget = size_t(1) << 20)
{
    ContentStore::Config cfg = memoryTier(budget);
    cfg.diskDir = dir;
    return cfg;
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

/** Writes one record for keyOf(0) into @p dir; returns its path. */
std::string
writeOneRecord(const std::string &dir)
{
    BlobStore writer(diskTier(dir));
    writer.set(keyOf(0), blobOf(512, 'r'));
    return writer.diskPath(keyOf(0));
}

/** Expects @p key's record to be rejected as corrupt with @p what in
 *  the message, then find() to miss, count it and drop the file. */
void
expectCorruptAndDropped(const std::string &dir, const std::string &key,
                        const std::string &what)
{
    BlobStore store(diskTier(dir));
    const std::string path = store.diskPath(key);
    auto loaded = store.loadDiskChecked(key);
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

// ----------------------- LRU mechanics ---------------------------

TEST(ContentStoreLru, FindMissesColdThenHitsAfterPutFirstWriterWins)
{
    BlobStore store(memoryTier());
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
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(store.residentBytes(), 256u);
}

TEST(ContentStoreLru, EvictsLeastRecentlyUsedAtExactBudget)
{
    constexpr size_t bytes = 256;
    BlobStore store(memoryTier(3 * bytes)); // exactly three values
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

TEST(ContentStoreLru, BudgetFloorKeepsTheNewestValueResident)
{
    BlobStore store(memoryTier(1)); // below a single value
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

TEST(ContentStoreLru, SharedPartsAreChargedOnce)
{
    // Two resident values share one part and each hold one of their
    // own: the shared bytes count once, evicting one value keeps them
    // charged for the survivor, and evicting both returns the charge
    // to zero — the copy-on-write page accounting of warmed-state
    // snapshots, checked at the primitive.
    auto shared = std::make_shared<const std::string>(1000, 's');
    auto own_a = std::make_shared<const std::string>(100, 'a');
    auto own_b = std::make_shared<const std::string>(200, 'b');
    BlobStore store(memoryTier(size_t(1) << 20));
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
    BlobStore tight(memoryTier(1));
    tight.set(keyOf(0), Blob{"xy", {shared, own_a}});
    tight.set(keyOf(1), Blob{"xyz", {shared, own_b}});
    EXPECT_EQ(tight.stats().evictions, 1u);
    EXPECT_EQ(tight.residentBytes(), 3u + 1000 + 200);
    tight.set(keyOf(2), Blob{"", {}});
    EXPECT_EQ(tight.stats().evictions, 2u);
    EXPECT_EQ(tight.residentBytes(), 0u)
        << "evicting both sharers releases the shared part";
}

TEST(ContentStoreLru, ZeroBudgetDisablesTheMemoryTier)
{
    // Budget 0 is a disk-only store (the result store's mode): nothing
    // stays resident, and every find() reads the record.
    const std::string dir = freshDir("content_store_disk_only");
    BlobStore store(diskTier(dir, 0));
    auto put = store.set(keyOf(0), blobOf(64, 'd'));
    ASSERT_NE(put, nullptr);
    EXPECT_EQ(store.residentBytes(), 0u);
    for (int i = 0; i < 2; ++i) {
        auto hit = store.get(keyOf(0));
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->bytes, put->bytes);
    }
    EXPECT_EQ(store.stats().diskHits, 2u);
    EXPECT_EQ(store.stats().puts, 1u);
    std::filesystem::remove_all(dir);
}

// ------------------------ Disk tier ------------------------------

TEST(ContentStoreDisk, RoundTripServesWarmStartAndAbsenceIsAPlainMiss)
{
    const std::string dir = freshDir("content_store_roundtrip");
    EXPECT_TRUE(std::filesystem::exists(writeOneRecord(dir)));

    BlobStore reader(diskTier(dir));
    auto loaded = reader.loadDiskChecked(keyOf(0));
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    auto hit = reader.get(keyOf(0));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->bytes, std::string(512, 'r'));
    auto s = reader.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.corrupt, 0u);

    // Second find comes from the memory tier.
    ASSERT_NE(reader.get(keyOf(0)), nullptr);
    EXPECT_EQ(reader.stats().diskHits, 1u);

    // Absence is a config-level miss, never data corruption.
    std::filesystem::remove(reader.diskPath(keyOf(0)));
    BlobStore cold(diskTier(dir));
    auto missing = cold.loadDiskChecked(keyOf(0));
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().category, ErrorCategory::Config);
    EXPECT_EQ(cold.get(keyOf(0)), nullptr);
    EXPECT_EQ(cold.stats().corrupt, 0u);
    EXPECT_EQ(cold.stats().misses, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ContentStoreDisk, UnwritableCacheDirDegradesToMemoryTier)
{
    // A path below a regular file cannot be created, even by root.
    const std::string blocker = freshDir("content_store_blocker");
    rewriteFile(blocker, {'x'});
    BlobStore store(diskTier(blocker + "/nested/cache"));
    EXPECT_TRUE(store.diskDir().empty())
        << "an uncreatable dir disables the disk tier, not the store";
    EXPECT_NE(store.set(keyOf(0), blobOf(64, 'a')), nullptr);
    EXPECT_NE(store.get(keyOf(0)), nullptr);
    std::filesystem::remove(blocker);
}

TEST(ContentStoreDisk, TruncationAndBitFlipsAreCorruptAndDropped)
{
    // Below the frame floor the size check rejects a record before any
    // field is parsed; a milder truncation or a flipped bit anywhere
    // fails the whole-record checksum.
    const std::string dir = freshDir("content_store_truncated");
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

TEST(ContentStoreDisk, FrameDefectsBehindAValidChecksumAreCorrupt)
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
    const std::string dir = freshDir("content_store_frame");
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

TEST(ContentStoreDisk, ForeignRecordAtTheWrongPathFailsTheKeyCheck)
{
    // A checksum-valid record renamed onto another key's path must be
    // rejected by the key echo, never served as that key's value.
    const std::string dir = freshDir("content_store_foreign");
    const std::string path0 = writeOneRecord(dir);
    BlobStore store(diskTier(dir));
    std::filesystem::rename(path0, store.diskPath(keyOf(1)));
    expectCorruptAndDropped(dir, keyOf(1),
                            "does not match the requested key");
    std::filesystem::remove_all(dir);
}

TEST(ContentStoreDisk, PayloadTheCodecRejectsIsCorruptAndDropped)
{
    const std::string dir = freshDir("content_store_codec");
    const std::string path = writeOneRecord(dir);
    editPayload(path, [](std::vector<char> &p) { p.assign({'B', 'A', 'D'}); });
    expectCorruptAndDropped(dir, keyOf(0), "payload defect");
    std::filesystem::remove_all(dir);
}

TEST(ContentStoreDisk, InjectedFaultTargetsCorruptDiskReads)
{
    // The kind's reserved target corrupts every disk read; a per-read
    // target corrupts only the reads that name it. Memory hits are
    // never injected.
    const std::string dir = freshDir("content_store_inject");
    writeOneRecord(dir);
    for (const char *spec : {"state-corrupt:blob-store",
                             "state-corrupt:blob-window"}) {
        SCOPED_TRACE(spec);
        auto parsed = FaultPlan::parse(spec);
        ASSERT_TRUE(parsed.ok());
        const FaultPlan plan = std::move(parsed).value();
        ContentStore::Config cfg = diskTier(dir);
        cfg.plan = &plan;
        BlobStore store(cfg);
        auto loaded = store.loadDiskChecked(keyOf(0), "blob-window");
        ASSERT_FALSE(loaded.ok());
        EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
        EXPECT_NE(loaded.error().message.find("injected"),
                  std::string::npos);
        const bool every_read = std::string(spec).find("blob-store") !=
                                std::string::npos;
        EXPECT_EQ(store.loadDiskChecked(keyOf(0)).ok(), !every_read);
        EXPECT_EQ(store.get(keyOf(0), "blob-window"), nullptr);
        EXPECT_EQ(store.stats().corrupt, 1u);
        writeOneRecord(dir); // the miss dropped the record
    }
    std::filesystem::remove_all(dir);
}

// ------------------------ Concurrency ----------------------------

TEST(ContentStoreConcurrent, ThreadsShareOneEvictingDiskStore)
{
    // Eight threads publish and read overlapping keys through a store
    // whose budget holds two values: every read sees the canonical
    // value, from memory or disk, and no record is ever corrupt.
    const std::string dir = freshDir("content_store_threads");
    BlobStore store(diskTier(dir, 2 * 128));
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
    EXPECT_EQ(store.stats().corrupt, 0u);
    EXPECT_GT(store.stats().evictions, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ContentStoreConcurrent, ProcessesSharingADiskTierNeverTearRecords)
{
    // Six processes rewrite and read the same eight records for 200
    // rounds. Temp names are unique per process as well as per thread,
    // so no writer ever renames another's half-written file into place:
    // readers see complete records or none, and no temp file survives.
    const std::string dir = freshDir("content_store_processes");
    std::filesystem::create_directories(dir);
    constexpr int kProcs = 6, kKeys = 8, kRounds = 200;
    std::vector<pid_t> kids;
    for (int p = 0; p < kProcs; ++p) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Disk-only: every read opens the shared file.
            BlobStore store(diskTier(dir, 0));
            int wrong = 0;
            for (int round = 0; round < kRounds; ++round) {
                for (int k = 0; k < kKeys; ++k) {
                    const Blob want = blobOf(4096 + 64 * k,
                                             static_cast<char>('a' + k));
                    store.remove(keyOf(k));
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

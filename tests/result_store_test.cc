/**
 * @file
 * Tests for the incremental content-hashed result store
 * (sim/result_store.hh), in three layers:
 *
 *  1. Campaigns: successful runs round-trip bitwise through put/find,
 *     the executor serves unchanged cells from the store, a one-knob
 *     config change invalidates exactly the cells it touches, a
 *     renamed config replays under its new label, failed cells are
 *     never stored so a rerun executes only them, and a second
 *     campaign pointed at a locked store fails fast with a config
 *     error.
 *  2. The record format: the file name and frame head are pinned to
 *     literals so earlier stores keep replaying, and every record
 *     defect (missing file, truncation, bit flip, magic, version skew,
 *     key mismatch, payload length, a payload that cannot replay as a
 *     successful run) surfaces through load() as the documented
 *     taxonomy, while find() drops the bad record and misses; an
 *     unwritable directory skips the record.
 *  3. Concurrency: threads sharing one store never see a wrong or torn
 *     record (the TSan CI job runs the *Concurrent* cases).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_inject.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"
#include "sim/result_store.hh"
#include "sim/worker_proto.hh"
#include "sim_result_compare.hh"
#include "store_test_util.hh"
#include "trace/suite.hh"

namespace catchsim
{
namespace
{

constexpr uint64_t kInstr = 20000;
constexpr uint64_t kWarm = 5000;

/** Fresh scratch directory per test; removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &name)
        : path(::testing::TempDir() + "catchsim_" + name)
    {
        std::filesystem::remove_all(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }
    std::string path;
};

std::unique_ptr<ResultStore>
mustOpen(const std::string &dir)
{
    auto s = ResultStore::open(dir);
    EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().message);
    return s.ok() ? std::move(s).value() : nullptr;
}

RunKey
keyFor(const SimConfig &cfg, const std::string &workload)
{
    auto wl = findWorkload(workload);
    EXPECT_TRUE(wl.ok()) << workload;
    return RunKey{workload, wl.ok() ? wl.value()->seed() : 0,
                  configDigest(cfg), kInstr, kWarm};
}

IsolationOptions
optsWith(ResultStore *store, const FaultPlan *plan = nullptr)
{
    IsolationOptions opts;
    opts.resultStore = store;
    opts.plan = plan;
    opts.backoffMs = 0;
    return opts;
}

/** A synthetic key, distinct per @p n. */
RunKey
keyOf(int n)
{
    return RunKey{"mcf", static_cast<uint64_t>(n), 0xc0ffee, kInstr,
                  kWarm};
}

/** A synthetic successful outcome, distinct per @p n. */
RunOutcome
outcomeOf(int n)
{
    RunOutcome out;
    out.workload = out.result.workload = "mcf";
    out.config = out.result.config = "synthetic";
    out.attempts = 1 + n % 2;
    out.status = out.attempts > 1 ? RunStatus::Retried : RunStatus::Ok;
    out.result.core.instrs = kInstr;
    out.result.core.cycles = kInstr + 1000 * n;
    out.result.ipc = out.result.core.ipc();
    return out;
}

void
expectSameOutcome(const RunOutcome &got, const RunOutcome &want)
{
    EXPECT_TRUE(got.fromStore);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.attempts, want.attempts);
    expectBitwiseEqual(got.result, want.result);
}

/** Writes outcomeOf(0)'s record for keyOf(0) afresh; returns its
 *  path. */
std::string
writeOneRecord(ResultStore &store)
{
    const std::string path = store.recordPath(keyOf(0));
    std::filesystem::remove(path);
    store.put(keyOf(0), outcomeOf(0));
    return path;
}

/** Expects load() to reject @p key's record as corrupt, naming the
 *  record and @p what, then find() to miss and drop the file. */
void
expectCorruptAndDropped(ResultStore &store, const RunKey &key,
                        const std::string &what)
{
    const std::string path = store.recordPath(key);
    auto loaded = store.load(key);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().category, ErrorCategory::TraceCorrupt);
    EXPECT_NE(loaded.error().message.find(what), std::string::npos)
        << loaded.error().message;
    EXPECT_NE(loaded.error().message.find(path), std::string::npos)
        << "a defect names the record";
    EXPECT_FALSE(store.find(key).has_value())
        << "corruption reports a miss so the cell re-executes";
    EXPECT_FALSE(std::filesystem::exists(path))
        << "the bad record is dropped so the slot can be rewritten";
}

// -------------------------- Campaigns ----------------------------

TEST(ResultStore, PutThenFindRoundTripsBitwise)
{
    ScratchDir dir("store_roundtrip");
    SimConfig cfg = baselineSkx();
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);

    auto ran = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1);
    ASSERT_TRUE(ran[0].ok());

    RunKey key = keyFor(cfg, "hmmer");
    EXPECT_FALSE(store->find(key).has_value());
    auto absent = store->load(key);
    ASSERT_FALSE(absent.ok());
    EXPECT_EQ(absent.error().category, ErrorCategory::Config);

    ran[0].profile = RunProfile{}; // wall-clock data is never stored
    store->put(key, ran[0]);
    auto hit = store->find(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->fromStore);
    EXPECT_FALSE(hit->profile.has_value());
    EXPECT_EQ(hit->status, RunStatus::Ok);
    EXPECT_EQ(hit->attempts, 1u);
    expectBitwiseEqual(ran[0].result, hit->result);
}

TEST(ResultStore, ExecutorResweepHitsUnchangedCellsOnly)
{
    ScratchDir dir("store_resweep");
    SimConfig cfg = baselineSkx();
    const std::vector<std::string> names = {"mcf", "hmmer"};

    // Campaign 1: cold store, every cell executes and persists.
    auto s1 = mustOpen(dir.path);
    ASSERT_NE(s1, nullptr);
    auto first = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                      optsWith(s1.get()));
    for (const auto &o : first) {
        ASSERT_TRUE(o.ok()) << o.workload;
        EXPECT_FALSE(o.fromStore);
        EXPECT_TRUE(o.storeMiss);
        EXPECT_TRUE(std::filesystem::exists(
            s1->recordPath(keyFor(cfg, o.workload))))
            << o.workload;
    }
    CampaignSummary sum1 = summarizeOutcomes(first);
    EXPECT_EQ(sum1.storeMisses, names.size());
    EXPECT_EQ(sum1.storeHits, 0u);
    s1.reset(); // release the campaign lock

    // Campaign 2: identical config — every cell replays bitwise.
    auto s2 = mustOpen(dir.path);
    ASSERT_NE(s2, nullptr);
    auto second = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                       optsWith(s2.get()));
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(second[i].ok());
        EXPECT_TRUE(second[i].fromStore) << names[i];
        EXPECT_EQ(second[i].config, cfg.name);
        expectBitwiseEqual(first[i].result, second[i].result);
    }
    CampaignSummary sum2 = summarizeOutcomes(second);
    EXPECT_EQ(sum2.storeHits, names.size());
    EXPECT_EQ(sum2.storeMisses, 0u);
    s2.reset();

    // Campaign 3: one knob changed — every cell is invalidated and
    // re-executes (the digest covers the whole SimConfig).
    SimConfig tweaked = cfg;
    tweaked.oracle.latAddLlc = 1;
    auto s3 = mustOpen(dir.path);
    ASSERT_NE(s3, nullptr);
    auto third = runWorkloadsIsolated(tweaked, names, kInstr, kWarm, 2,
                                      optsWith(s3.get()));
    for (const auto &o : third) {
        ASSERT_TRUE(o.ok());
        EXPECT_FALSE(o.fromStore) << o.workload
                                  << " must re-execute after the sweep";
        EXPECT_TRUE(o.storeMiss) << o.workload;
    }
}

TEST(ResultStore, RenamedConfigKeepsItsCells)
{
    // The digest hashes content, not the label: a renamed but otherwise
    // identical config replays from the store.
    SimConfig cfg = baselineSkx();
    SimConfig renamed = cfg;
    renamed.name = "relabelled";
    EXPECT_EQ(configDigest(cfg), configDigest(renamed));

    SimConfig tweaked = cfg;
    tweaked.llc.latency += 1;
    EXPECT_NE(configDigest(cfg), configDigest(tweaked));

    // Through the executor the hit carries the new label everywhere, as
    // a fresh run under that name would; every other bit is the stored
    // run's.
    ScratchDir dir("store_renamed");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    auto first = runWorkloadsIsolated(cfg, {"hmmer"}, kInstr, kWarm, 1,
                                      optsWith(store.get()));
    ASSERT_TRUE(first[0].ok());
    auto second = runWorkloadsIsolated(renamed, {"hmmer"}, kInstr, kWarm,
                                       1, optsWith(store.get()));
    ASSERT_TRUE(second[0].ok());
    EXPECT_TRUE(second[0].fromStore);
    EXPECT_EQ(second[0].config, "relabelled");
    EXPECT_EQ(second[0].result.config, "relabelled");
    SimResult want = first[0].result;
    want.config = "relabelled";
    expectBitwiseEqual(want, second[0].result);
}

TEST(ResultStore, FailedCellsAreNotStoredAndRerunAlone)
{
    // A campaign with one failed cell stores only its successes, so the
    // rerun without the fault executes exactly the failed cell.
    ScratchDir dir("store_failures");
    const std::vector<std::string> names = {"mcf", "hmmer"};
    SimConfig cfg = baselineSkx();
    auto corrupt_mcf = FaultPlan::parse("trace-corrupt:mcf");
    ASSERT_TRUE(corrupt_mcf.ok());
    const FaultPlan no_faults;

    auto clean = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                      optsWith(nullptr, &no_faults));
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    auto first =
        runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                             optsWith(store.get(), &corrupt_mcf.value()));
    ASSERT_FALSE(first[0].ok());
    ASSERT_TRUE(first[1].ok());

    auto second = runWorkloadsIsolated(cfg, names, kInstr, kWarm, 2,
                                       optsWith(store.get(), &no_faults));
    ASSERT_TRUE(second[0].ok()) << "mcf must recover on the rerun";
    EXPECT_TRUE(second[0].storeMiss);
    EXPECT_FALSE(second[0].fromStore);
    EXPECT_TRUE(second[1].fromStore);
    EXPECT_FALSE(second[1].storeMiss);
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_TRUE(clean[i].ok()) << names[i];
        expectBitwiseEqual(clean[i].result, second[i].result);
    }
}

TEST(ResultStore, KeyCoversTheWholeRunIdentity)
{
    SimConfig cfg = baselineSkx();
    RunKey key = keyFor(cfg, "hmmer");
    const std::string base = key.bytes();

    RunKey k = key;
    k.workload = "mcf";
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.workloadSeed ^= 1;
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.configDigest ^= 1;
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.instrs += 1;
    EXPECT_NE(k.bytes(), base);
    k = key;
    k.warmup += 1;
    EXPECT_NE(k.bytes(), base);
}

TEST(ResultStore, SecondCampaignOnALockedStoreFailsFast)
{
    ScratchDir dir("store_lock");
    auto first = mustOpen(dir.path);
    ASSERT_NE(first, nullptr);

    auto second = ResultStore::open(dir.path);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().category, ErrorCategory::Config);
    EXPECT_NE(second.error().message.find("locked"), std::string::npos);

    // Releasing the first campaign's lock frees the store.
    first.reset();
    auto third = ResultStore::open(dir.path);
    EXPECT_TRUE(third.ok());
}

TEST(ResultStore, UnwritableDirectoryIsAConfigError)
{
    ScratchDir dir("store_unwritable");
    ASSERT_TRUE(std::filesystem::create_directories(dir.path));
    std::string blocker = dir.path + "/blocker";
    std::FILE *f = std::fopen(blocker.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);

    auto s = ResultStore::open(blocker + "/nested");
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.error().category, ErrorCategory::Config);
}

// ------------------------ Record format --------------------------

TEST(ResultStore, RecordNameAndFrameHeadArePinned)
{
    // Literals read from a record an earlier build wrote: a store keeps
    // replaying across builds only while a key's bytes, its record name
    // and the frame head stay byte-identical.
    ScratchDir dir("store_key_pin");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    const RunKey key{"mcf", 0x0123456789abcdefULL, 0xfedcba9876543210ULL,
                     20000, 5000};
    const std::string echo("\xef\xcd\xab\x89\x67\x45\x23\x01"
                           "\x10\x32\x54\x76\x98\xba\xdc\xfe"
                           "\x20\x4e\x00\x00\x00\x00\x00\x00"
                           "\x88\x13\x00\x00\x00\x00\x00\x00"
                           "mcf",
                           35);
    EXPECT_EQ(key.bytes(), echo);
    store->put(key, outcomeOf(0));
    const std::string path = store->recordPath(key);
    EXPECT_EQ(std::filesystem::path(path).filename().string(),
              "442937764c63184a.res");
    const std::vector<char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 14 + echo.size());
    EXPECT_EQ(std::string(bytes.data(), 14),
              std::string("CRSLT\0\x01\0\0\0\x23\0\0\0", 14))
        << "magic, version 1, key length 35";
    EXPECT_EQ(std::string(bytes.data() + 14, echo.size()), echo);
}

TEST(ResultStore, EveryFindReadsTheRecordAndAbsenceIsAPlainMiss)
{
    ScratchDir dir("store_record_roundtrip");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    const std::string path = writeOneRecord(*store);
    EXPECT_TRUE(std::filesystem::exists(path));
    for (int i = 0; i < 2; ++i) {
        auto hit = store->find(keyOf(0));
        ASSERT_TRUE(hit.has_value());
        expectSameOutcome(*hit, outcomeOf(0));
    }

    // A second put of a persisted key keeps the record it found.
    store->put(keyOf(0), outcomeOf(1));
    auto kept = store->load(keyOf(0));
    ASSERT_TRUE(kept.ok()) << kept.error().message;
    expectSameOutcome(kept.value(), outcomeOf(0));

    // Absence is a config-level miss, never data corruption; and no
    // copy outlives the record.
    std::filesystem::remove(path);
    auto missing = store->load(keyOf(0));
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().category, ErrorCategory::Config);
    EXPECT_FALSE(store->find(keyOf(0)).has_value());
}

TEST(ResultStore, UnwritableDirectorySkipsTheRecord)
{
    // A store whose directory became a regular file cannot take a
    // record, even as root: the put warns and the slot stays a plain
    // miss.
    ScratchDir dir("store_record_blocked");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    std::filesystem::remove_all(dir.path);
    rewriteFile(dir.path, {'x'});
    store->put(keyOf(0), outcomeOf(0));
    auto missing = store->load(keyOf(0));
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().category, ErrorCategory::Config);
    EXPECT_FALSE(store->find(keyOf(0)).has_value());
}

TEST(ResultStore, TruncationAndBitFlipsAreCorruptAndDropped)
{
    // Below the frame floor the size check rejects a record before any
    // field is parsed; a milder truncation or a flipped bit anywhere
    // fails the whole-record checksum.
    ScratchDir dir("store_record_truncated");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    const std::string path = writeOneRecord(*store);
    const std::vector<char> intact = readAll(path);
    std::vector<char> bytes(intact.begin(), intact.begin() + 10);
    rewriteFile(path, bytes);
    expectCorruptAndDropped(*store, keyOf(0), "truncated or foreign");

    bytes = intact;
    bytes.pop_back();
    rewriteFile(path, bytes);
    expectCorruptAndDropped(*store, keyOf(0), "FNV-1a checksum mismatch");

    bytes = intact;
    bytes[bytes.size() / 2] ^= 0x40; // one flipped bit mid-payload
    rewriteFile(path, bytes);
    expectCorruptAndDropped(*store, keyOf(0), "FNV-1a checksum mismatch");
}

TEST(ResultStore, FrameDefectsBehindAValidChecksumAreCorrupt)
{
    // Each doctored record is resealed so only the targeted frame field
    // differs: the check after the checksum must still refuse it, never
    // hand the payload to the parser.
    struct Case
    {
        const char *what;
        size_t offset;
        uint8_t flip;
    };
    ScratchDir dir("store_record_frame");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    const std::string path = writeOneRecord(*store);
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
        writeOneRecord(*store);
        std::vector<char> bytes = readAll(path);
        bytes[c.offset] ^= static_cast<char>(c.flip);
        resealRecord(bytes);
        rewriteFile(path, bytes);
        expectCorruptAndDropped(*store, keyOf(0), c.what);
    }
}

TEST(ResultStore, ForeignRecordAtTheWrongPathFailsTheKeyCheck)
{
    // A checksum-valid record renamed onto another key's path must be
    // rejected by the key echo, never served as that key's outcome.
    ScratchDir dir("store_record_foreign");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    std::filesystem::rename(writeOneRecord(*store),
                            store->recordPath(keyOf(1)));
    expectCorruptAndDropped(*store, keyOf(1),
                            "does not match the requested key");
}

TEST(ResultStore, PayloadsThatCannotReplayAreCorruptAndDropped)
{
    // Behind a valid frame, a payload that could not replay as a
    // successful run — not JSON, missing keys, a failure status — is
    // corrupt: find() deletes the record and misses; a fresh put heals
    // the slot.
    ScratchDir dir("store_record_payload");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    struct Case
    {
        const char *what;
        std::function<void(std::string &)> edit;
    };
    const Case cases[] = {
        {"unparsable record", [](std::string &rec) { rec = "BAD"; }},
        {"result-store record",
         [](std::string &rec) { rec = "{\"status\":\"ok\"}"; }},
        {"non-success status", [](std::string &rec) {
             rec = "{\"status\":\"failed\",\"attempts\":1,\"error\":"
                   "{\"category\":\"internal\",\"message\":\"x\"}}";
         }}};
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const std::string path = writeOneRecord(*store);
        editPayload(path, [&c](std::vector<char> &p) {
            std::string rec(p.begin(), p.end());
            c.edit(rec);
            p.assign(rec.begin(), rec.end());
        });
        expectCorruptAndDropped(*store, keyOf(0), c.what);
    }
    store->put(keyOf(0), outcomeOf(0));
    EXPECT_TRUE(store->find(keyOf(0)).has_value());
}

// ------------------------- Concurrency ---------------------------

TEST(ResultStoreConcurrent, ThreadsShareOneStore)
{
    // Eight threads write, read and delete overlapping records of one
    // store: every load sees the canonical outcome or no record, never
    // a corrupt one, and no temp file survives.
    ScratchDir dir("store_threads");
    auto store = mustOpen(dir.path);
    ASSERT_NE(store, nullptr);
    std::atomic<int> hits{0}, wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&store, &hits, &wrong, t] {
            for (int k = t; k < t + 50; ++k) {
                store->put(keyOf(k % 6), outcomeOf(k % 6));
                const int next = (k + 1) % 6;
                auto got = store->load(keyOf(next));
                if (got.ok()) {
                    ++hits;
                    wrong += got.value().result.ipc !=
                             outcomeOf(next).result.ipc;
                } else {
                    wrong += got.error().category != ErrorCategory::Config;
                }
                if (k % 5 == 0) {
                    std::error_code ec;
                    std::filesystem::remove(
                        store->recordPath(keyOf((k + 2) % 6)), ec);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(wrong.load(), 0) << "a wrong or corrupt record was read";
    EXPECT_GT(hits.load(), 0);
    for (const auto &e : std::filesystem::directory_iterator(dir.path))
        EXPECT_EQ(e.path().filename().string().find(".tmp"),
                  std::string::npos)
            << "leftover temp file " << e.path();
}

} // namespace
} // namespace catchsim

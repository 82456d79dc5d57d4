/**
 * @file
 * TraceStream correctness: the chunked, O(chunk)-memory stream must be
 * op-for-op identical to the materialized oracle (Workload::generate),
 * across chunk boundaries, partial final chunks, rewinds, and for every
 * workload in the quick suite. These equalities are what licenses the
 * simulator's streamed default — the golden-hash tests in
 * determinism_test.cc then extend them to full SimResults.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "trace/suite.hh"
#include "trace/trace_stream.hh"
#include "trace/trace_view.hh"

namespace catchsim
{
namespace
{

void
expectOpEq(const MicroOp &a, const MicroOp &b, size_t i,
           const std::string &what)
{
    ASSERT_EQ(a.pc, b.pc) << what << " op " << i;
    ASSERT_EQ(a.cls, b.cls) << what << " op " << i;
    ASSERT_EQ(a.memAddr, b.memAddr) << what << " op " << i;
    ASSERT_EQ(a.value, b.value) << what << " op " << i;
    ASSERT_EQ(a.taken, b.taken) << what << " op " << i;
    ASSERT_EQ(a.dst, b.dst) << what << " op " << i;
    for (uint32_t s = 0; s < kMaxSrcs; ++s)
        ASSERT_EQ(a.src[s], b.src[s]) << what << " op " << i;
}

/** Walks the whole stream in consumer order, collecting every op. */
std::vector<MicroOp>
drain(TraceStream &stream)
{
    std::vector<MicroOp> out;
    out.reserve(stream.size());
    TraceView view = stream.view();
    for (size_t p = 0; p < stream.size(); ++p) {
        stream.ensure(p);
        out.push_back(view.at(p));
    }
    return out;
}

TEST(TraceStream, MatchesMaterializedOracleAcrossQuickSuite)
{
    for (const std::string &name : stQuickNames()) {
        auto oracle_wl = makeWorkload(name);
        Trace oracle = oracle_wl->generate(30000);

        auto wl = makeWorkload(name);
        TraceStream stream(*wl, 30000, /*chunk_ops=*/4096);
        ASSERT_EQ(stream.size(), oracle.ops.size()) << name;
        std::vector<MicroOp> streamed = drain(stream);
        for (size_t i = 0; i < oracle.ops.size(); ++i)
            expectOpEq(streamed[i], oracle.ops[i], i, name);
    }
}

TEST(TraceStream, ChunkBoundaryCases)
{
    // Below one chunk, exactly one, exactly two (ring-full), one past a
    // chunk boundary, and a partial final chunk.
    const size_t chunk = 4096;
    for (size_t total : {size_t(1000), chunk, 2 * chunk, 2 * chunk + 1,
                         size_t(20000)}) {
        auto oracle_wl = makeWorkload("mcf");
        Trace oracle = oracle_wl->generate(total);

        auto wl = makeWorkload("mcf");
        TraceStream stream(*wl, total, chunk);
        std::vector<MicroOp> streamed = drain(stream);
        ASSERT_EQ(streamed.size(), oracle.ops.size());
        for (size_t i = 0; i < total; ++i)
            expectOpEq(streamed[i], oracle.ops[i], i, "mcf");
    }
}

TEST(TraceStream, LookaheadWindowIsAlwaysResident)
{
    // The runahead walker reads up to a chunk past the consumer; verify
    // those slots already hold the right ops *before* the consumer
    // advances into them.
    const size_t chunk = 4096;
    const size_t total = 5 * chunk + 123;
    auto oracle_wl = makeWorkload("omnetpp");
    Trace oracle = oracle_wl->generate(total);

    auto wl = makeWorkload("omnetpp");
    TraceStream stream(*wl, total, chunk);
    TraceView view = stream.view();
    for (size_t p = 0; p < total; ++p) {
        stream.ensure(p);
        expectOpEq(view.at(p), oracle.ops[p], p, "consume");
        size_t ahead = std::min(total - 1, p + chunk - 1);
        expectOpEq(view.at(ahead), oracle.ops[ahead], ahead, "lookahead");
    }
}

TEST(TraceStream, RewindReplaysIdentically)
{
    auto wl = makeWorkload("xalancbmk");
    TraceStream stream(*wl, 20000, 4096);
    std::vector<MicroOp> first = drain(stream);
    stream.rewind();
    std::vector<MicroOp> second = drain(stream);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        expectOpEq(second[i], first[i], i, "rewind");
}

TEST(TraceStream, RewindAfterPartialConsumption)
{
    auto wl = makeWorkload("mcf");
    Trace oracle = makeWorkload("mcf")->generate(20000);

    TraceStream stream(*wl, 20000, 4096);
    // Consume only part of the stream, then start over.
    for (size_t p = 0; p < 10000; ++p)
        stream.ensure(p);
    stream.rewind();
    std::vector<MicroOp> streamed = drain(stream);
    for (size_t i = 0; i < streamed.size(); ++i)
        expectOpEq(streamed[i], oracle.ops[i], i, "partial-rewind");
}

TEST(TraceStream, MemoryAddressStableAcrossRewind)
{
    // TACT-Feeder captures the FunctionalMemory pointer at build time;
    // rewind() must reset the memory in place, not reallocate it.
    auto wl = makeWorkload("mcf");
    TraceStream stream(*wl, 10000, 4096);
    const FunctionalMemory *before = stream.mem().get();
    stream.rewind();
    EXPECT_EQ(stream.mem().get(), before);
}

TEST(TraceStream, MemoryMatchesOracleForAllLoads)
{
    // After a full stream, every load's address must read the same
    // value the materialized trace's final image holds (the feeder's
    // value source).
    auto oracle_wl = makeWorkload("mcf");
    Trace oracle = oracle_wl->generate(30000);

    auto wl = makeWorkload("mcf");
    TraceStream stream(*wl, 30000, 4096);
    std::vector<MicroOp> streamed = drain(stream);
    for (const auto &op : streamed) {
        if (op.isLoad()) {
            EXPECT_EQ(stream.mem()->read(op.memAddr),
                      oracle.mem->read(op.memAddr));
        }
    }
}

TEST(TraceStream, GenerateIsIdempotent)
{
    // Workload objects must reset their generation cursors in setup():
    // two generate() calls (or a stream after a generate) must produce
    // the same trace. Sweep the full suite — this is the regression
    // guard for every kernel's cursor reset.
    for (const std::string &name : stSuiteNames()) {
        auto wl = makeWorkload(name);
        Trace a = wl->generate(12000);
        Trace b = wl->generate(12000);
        ASSERT_EQ(a.ops.size(), b.ops.size()) << name;
        for (size_t i = 0; i < a.ops.size(); ++i)
            expectOpEq(b.ops[i], a.ops[i], i, name);
    }
}

/** Same page addresses holding the same words. Snapshotting leaves
 *  both memories' contents as they are. */
bool
sameMemory(FunctionalMemory &a, FunctionalMemory &b)
{
    const auto pa = a.snapshotPages().list(), pb = b.snapshotPages().list();
    if (pa.size() != pb.size())
        return false;
    uint64_t wa[FunctionalMemory::kWordsPerPage];
    uint64_t wb[FunctionalMemory::kWordsPerPage];
    for (size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].first != pb[i].first)
            return false;
        pa[i].second->copyTo(wa);
        pb[i].second->copyTo(wb);
        if (std::memcmp(wa, wb, kPageBytes) != 0)
            return false;
    }
    return true;
}

TEST(TraceStream, SmallChunksMatchGenerateForEverySuiteKernel)
{
    // 1024-op chunks are far smaller than some kernels' run() calls
    // (McfLike emits up to 4096 x 11 ops per call), so one call
    // overshoots several ring halves and its spill seeds several
    // refills. Both lengths end mid-chunk; the longer one outlasts the
    // largest overshoot.
    constexpr size_t kChunk = 1024;
    for (const size_t ops : {3 * kChunk + 517, 50 * kChunk + 300}) {
        for (const std::string &name : stSuiteNames()) {
            const std::string what =
                name + " at " + std::to_string(ops) + " ops";
            auto wl = makeWorkload(name);
            const Trace oracle = wl->generate(ops);
            TraceStream stream(*wl, ops, kChunk);
            const std::vector<MicroOp> streamed = drain(stream);
            ASSERT_EQ(streamed.size(), oracle.ops.size()) << what;
            for (size_t i = 0; i < streamed.size() && !HasFatalFailure();
                 ++i)
                expectOpEq(streamed[i], oracle.ops[i], i, what);
            ASSERT_FALSE(HasFatalFailure()) << what;
            EXPECT_TRUE(sameMemory(*stream.mem(), *oracle.mem)) << what;
        }
    }
}

TEST(TraceStream, SingleWorkloadObjectCanStreamTwice)
{
    auto wl = makeWorkload("libquantum");
    Trace oracle = makeWorkload("libquantum")->generate(15000);
    {
        TraceStream first(*wl, 15000, 4096);
        drain(first);
    }
    TraceStream second(*wl, 15000, 4096);
    std::vector<MicroOp> streamed = drain(second);
    for (size_t i = 0; i < streamed.size(); ++i)
        expectOpEq(streamed[i], oracle.ops[i], i, "second-stream");
}

// ------------------- Store-backed streams ------------------------
// The memoized refill path (trace/chunk_store.hh) must be op-for-op
// invisible: a store-backed stream serves exactly the legacy sequence
// at every boundary shape, across rewinds, whether chunks come from
// the generator or the store.

TEST(TraceStream, StoreBackedStreamMatchesOracleAtChunkBoundaries)
{
    const size_t chunk = 4096;
    ChunkStore store;
    for (size_t total : {size_t(1000), chunk, 2 * chunk, 2 * chunk + 1,
                         3 * chunk - 1, size_t(20000)}) {
        auto oracle_wl = makeWorkload("mcf");
        Trace oracle = oracle_wl->generate(total);

        // Cold pass (generates + publishes), then a warm pass that
        // serves the same positions purely from the store.
        for (int pass = 0; pass < 2; ++pass) {
            auto wl = makeWorkload("mcf");
            TraceStream stream(*wl, total, chunk,
                               std::function<double()>(), &store);
            std::vector<MicroOp> streamed = drain(stream);
            for (size_t i = 0; i < total; ++i)
                expectOpEq(streamed[i], oracle.ops[i], i,
                           "store total=" + std::to_string(total) +
                               " pass=" + std::to_string(pass));
        }
    }
    EXPECT_GT(store.stats().hits, 0u);
}

TEST(TraceStream, RewindAcrossStoreServedChunksIsDeterministic)
{
    // A rewind discards the regeneration engine mid-identity; the next
    // refill — store hit or re-seeded regeneration — must restart the
    // canonical sequence at op 0. Partially warming the store first
    // makes the second pass cross generated AND store-served chunks.
    const size_t chunk = 4096;
    const size_t total = 5 * chunk + 123;
    auto oracle_wl = makeWorkload("omnetpp");
    Trace oracle = oracle_wl->generate(total);

    ChunkStore store;
    auto wl = makeWorkload("omnetpp");
    TraceStream stream(*wl, total, chunk, std::function<double()>(),
                       &store);
    // Consume 2.5 chunks (warms chunks 0..3 via lookahead), rewind
    // mid-chunk, then drain fully: the replay crosses store-served
    // chunks before missing into fresh generation.
    for (size_t p = 0; p < 2 * chunk + chunk / 2; ++p)
        stream.ensure(p);
    stream.rewind();
    std::vector<MicroOp> streamed = drain(stream);
    for (size_t i = 0; i < total; ++i)
        expectOpEq(streamed[i], oracle.ops[i], i, "store-rewind");
    EXPECT_GT(stream.storeHits(), 0u);
    EXPECT_GT(stream.storeMisses(), 0u);

    // And again from the now fully-warm store: pure hits.
    stream.rewind();
    std::vector<MicroOp> again = drain(stream);
    for (size_t i = 0; i < total; ++i)
        expectOpEq(again[i], oracle.ops[i], i, "warm-rewind");
}

TEST(TraceStream, StoreMemoryMatchesOracleForAllLoads)
{
    // Store mode replays each served chunk's Store ops into the
    // consumer-visible memory; the feeder-facing contract (loads read
    // the oracle image) must hold exactly as in legacy mode.
    auto oracle_wl = makeWorkload("mcf");
    Trace oracle = oracle_wl->generate(30000);

    ChunkStore store;
    for (int pass = 0; pass < 2; ++pass) {
        auto wl = makeWorkload("mcf");
        TraceStream stream(*wl, 30000, 4096,
                           std::function<double()>(), &store);
        std::vector<MicroOp> streamed = drain(stream);
        for (const auto &op : streamed) {
            if (op.isLoad()) {
                EXPECT_EQ(stream.mem()->read(op.memAddr),
                          oracle.mem->read(op.memAddr))
                    << "pass " << pass;
            }
        }
    }
}

TEST(TraceStream, EvictingStoreStillServesCanonically)
{
    // A store too small to hold the identity thrashes (every refill
    // regenerates from chunk 0 through the requested index); the
    // consumer must not be able to tell.
    const size_t chunk = 4096;
    const size_t total = 4 * chunk + 7;
    auto oracle_wl = makeWorkload("tpcc");
    Trace oracle = oracle_wl->generate(total);

    ChunkStore::Config cfg;
    cfg.memBudgetBytes = 1; // floor: exactly one resident chunk
    ChunkStore store(cfg);
    auto wl = makeWorkload("tpcc");
    TraceStream stream(*wl, total, chunk, std::function<double()>(),
                       &store);
    std::vector<MicroOp> streamed = drain(stream);
    for (size_t i = 0; i < total; ++i)
        expectOpEq(streamed[i], oracle.ops[i], i, "evicting-store");
    EXPECT_GT(store.stats().evictions, 0u);
}

TEST(TraceView, MaskedIndexingWrapsRing)
{
    std::vector<MicroOp> ring(8);
    for (size_t i = 0; i < ring.size(); ++i)
        ring[i].pc = 0x1000 + i;
    TraceView view{ring.data(), ring.size() - 1, 100};
    EXPECT_EQ(view.at(0).pc, 0x1000u);
    EXPECT_EQ(view.at(8).pc, 0x1000u);  // wraps to slot 0
    EXPECT_EQ(view.at(13).pc, 0x1005u); // 13 & 7 == 5
    EXPECT_EQ(view.count, 100u);
}

TEST(TraceView, IdentityMaskForMaterializedTraces)
{
    std::vector<MicroOp> ops(3);
    ops[2].pc = 0x42;
    TraceView view = makeView(ops);
    EXPECT_EQ(view.mask, ~size_t(0));
    EXPECT_EQ(view.count, 3u);
    EXPECT_EQ(view.at(2).pc, 0x42u);
}

TEST(MicroOp, StaysWithinPackedBudget)
{
    // The hot loop streams these by the hundred million; the packed
    // layout (pc + memAddr/target union + value + bytes) must not
    // regress past 32 bytes.
    static_assert(sizeof(MicroOp) <= 32, "MicroOp must stay packed");
    EXPECT_LE(sizeof(MicroOp), 32u);
}

} // namespace
} // namespace catchsim

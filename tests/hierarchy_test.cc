/**
 * @file
 * Tests for the cache hierarchy: inclusion policies, latency ordering,
 * MSHR-merge accounting, writeback motion, oracle knobs and prefetch
 * entry points.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "sim/configs.hh"

namespace catchsim
{
namespace
{

SimConfig
threeLevel()
{
    SimConfig cfg = baselineSkx();
    cfg.l1StridePrefetcher = false;
    cfg.l2StreamPrefetcher = false;
    return cfg;
}

SimConfig
twoLevel()
{
    SimConfig cfg = noL2(baselineSkx(), 6656);
    cfg.l1StridePrefetcher = false;
    cfg.l2StreamPrefetcher = false;
    return cfg;
}

TEST(Hierarchy, LatencyOrdering)
{
    CacheHierarchy h(threeLevel());
    const Addr a = 0x12340;
    MemResult mem = h.load(0, 0x400000, a, 1000);
    EXPECT_EQ(mem.served, Level::Mem);
    MemResult l1 = h.load(0, 0x400000, a, 100000);
    EXPECT_EQ(l1.served, Level::L1);
    EXPECT_GT(mem.latency, l1.latency);
    EXPECT_EQ(l1.latency, 5u);
}

TEST(Hierarchy, ExclusiveLlcHoldsOnlyVictims)
{
    SimConfig cfg = threeLevel();
    CacheHierarchy h(cfg);
    const Addr a = 0x40000;
    h.load(0, 0x400000, a, 0); // miss to memory: fills L1+L2, not LLC
    EXPECT_FALSE(h.inL2OrLlc(0, a) == false); // it is in the L2
    // Evict it from the L2 by filling many lines of the same L2 set.
    // L2: 1 MB 16-way -> 1024 sets; same-set stride = 1024*64.
    for (uint32_t i = 1; i <= 20; ++i)
        h.load(0, 0x400000, a + i * 1024 * 64, 10000 + i * 1000);
    // The line must now live in the LLC (moved as an L2 victim).
    MemResult r = h.load(0, 0x400000, a, 1000000);
    EXPECT_EQ(r.served, Level::LLC);
}

TEST(Hierarchy, ExclusiveLlcHitDeallocates)
{
    SimConfig cfg = threeLevel();
    CacheHierarchy h(cfg);
    const Addr a = 0x40000;
    h.load(0, 0x400000, a, 0);
    for (uint32_t i = 1; i <= 20; ++i)
        h.load(0, 0x400000, a + i * 1024 * 64, 100000 + i * 1000);
    uint64_t inval_before = h.llcStats().invalidations;
    MemResult r = h.load(0, 0x400000, a, 1000000);
    ASSERT_EQ(r.served, Level::LLC);
    EXPECT_GT(h.llcStats().invalidations, inval_before);
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    SimConfig cfg = baselineClient();
    cfg.l1StridePrefetcher = false;
    cfg.l2StreamPrefetcher = false;
    // Shrink the LLC so we can force evictions cheaply: 16 sets x 16 way.
    cfg.llc = CacheGeometry{16 * 16 * 64, 16, 40};
    cfg.l2 = CacheGeometry{8 * 8 * 64, 8, 12};
    CacheHierarchy h(cfg);
    const Addr a = 0x100000;
    h.load(0, 0x400000, a, 0);
    ASSERT_NE(h.load(0, 0x400000, a, 100000).served, Level::Mem);
    // Thrash the LLC set of `a` (same set stride = sets*64 = 1024).
    for (uint32_t i = 1; i <= 40; ++i)
        h.load(0, 0x400000, a + i * 1024, 200000 + i * 500);
    // Back-invalidation must have removed the L1/L2 copies with the LLC
    // line, so the next access goes to memory.
    MemResult r = h.load(0, 0x400000, a, 10000000);
    EXPECT_EQ(r.served, Level::Mem);
}

TEST(Hierarchy, InflightHitReportsFillLevel)
{
    CacheHierarchy h(threeLevel());
    const Addr a = 0x770000;
    h.load(0, 0x400000, a, 1000);
    // Immediately after the miss the line is in flight; the "L1 hit"
    // reports the memory level and pays the remaining time.
    MemResult r = h.load(0, 0x400000, a, 1001);
    EXPECT_EQ(r.served, Level::Mem);
    EXPECT_GT(r.latency, 5u);
    // Long after, it is a plain L1 hit.
    EXPECT_EQ(h.load(0, 0x400000, a, 1000000).served, Level::L1);
}

TEST(Hierarchy, StoreCommitMakesLineDirtyAndWritebacksReachDram)
{
    SimConfig cfg = twoLevel();
    // Tiny L1 so victims churn: 2 sets x 2 ways.
    cfg.l1d = CacheGeometry{256, 2, 5};
    CacheHierarchy h(cfg);
    for (uint32_t i = 0; i < 64; ++i)
        h.storeCommit(0, 0x200000 + i * 64, i * 100);
    // Dirty L1 victims must have moved into the LLC.
    EXPECT_GT(h.llcStats().fills, 0u);
    EXPECT_GT(h.stats().storeL1Misses, 0u);
}

TEST(Hierarchy, CodeFetchFillsL1i)
{
    CacheHierarchy h(threeLevel());
    MemResult m = h.codeFetch(0, 0x400000, 0);
    EXPECT_EQ(m.served, Level::Mem);
    MemResult hgain = h.codeFetch(0, 0x400000, 100000);
    EXPECT_EQ(hgain.served, Level::L1);
    EXPECT_EQ(h.l1iStats(0).demandHits, 1u);
}

TEST(Hierarchy, LatencyAdders)
{
    SimConfig cfg = threeLevel();
    cfg.oracle.latAddLlc = 12;
    CacheHierarchy base(threeLevel());
    CacheHierarchy slow(cfg);
    const Addr a = 0x40000;
    // Put the line into the LLC on both (via L2-set thrash).
    for (auto *h : {&base, &slow}) {
        h->load(0, 0x400000, a, 0);
        for (uint32_t i = 1; i <= 20; ++i)
            h->load(0, 0x400000, a + i * 1024 * 64, 100000 + i * 1000);
    }
    uint64_t lb = base.load(0, 0x400000, a, 10000000).latency;
    uint64_t ls = slow.load(0, 0x400000, a, 10000000).latency;
    EXPECT_EQ(ls, lb + 12);
}

TEST(Hierarchy, DemoteAllL1Hits)
{
    SimConfig cfg = threeLevel();
    cfg.oracle.demote = DemoteMode::L1ToL2All;
    CacheHierarchy h(cfg);
    const Addr a = 0x999940;
    h.load(0, 0x400000, a, 0);
    MemResult r = h.load(0, 0x400000, a, 1000000);
    EXPECT_EQ(r.served, Level::L1);
    EXPECT_EQ(r.latency, cfg.l2.latency);
    EXPECT_EQ(h.stats().demotedLoads, 1u);
}

TEST(Hierarchy, OraclePrefetchConvertsL2Hit)
{
    SimConfig cfg = threeLevel();
    cfg.oracle.oraclePrefetch = true; // all-PC variant
    CacheHierarchy h(cfg);
    const Addr a = 0x5550c0;
    h.load(0, 0x400000, a, 0);
    // Evict from L1 only (fill the L1 set), keeping the L2 copy.
    for (uint32_t i = 1; i <= 10; ++i)
        h.load(0, 0x400000, a + i * 64 * 64, 100000 + 1000 * i);
    MemResult r = h.load(0, 0x400000, a, 10000000);
    EXPECT_EQ(r.served, Level::L1);
    EXPECT_EQ(r.latency, 5u);
    EXPECT_GT(h.stats().oracleConverted, 0u);
}

TEST(Hierarchy, TactPrefetchMovesLineToL1)
{
    CacheHierarchy h(threeLevel());
    const Addr a = 0x31000;
    h.load(0, 0x400000, a, 0); // now in L1+L2
    // Evict from L1.
    for (uint32_t i = 1; i <= 10; ++i)
        h.load(0, 0x400000, a + i * 64 * 64, 100000 + 1000 * i);
    Level from = h.prefetchToL1(0, a, 10000000,
                               CacheHierarchy::PfKind::TactData);
    EXPECT_EQ(from, Level::L2);
    MemResult r = h.load(0, 0x400000, a, 20000000);
    EXPECT_EQ(r.served, Level::L1);
    EXPECT_TRUE(r.tactCovered);
    EXPECT_EQ(h.stats().tactUsefulHits, 1u);
}

TEST(Hierarchy, TactCodePrefetchDroppedWhenOffDie)
{
    CacheHierarchy h(threeLevel());
    Level from = h.prefetchToL1(0, 0xabc000, 0,
                                CacheHierarchy::PfKind::TactCode);
    EXPECT_EQ(from, Level::None);
    EXPECT_GT(h.stats().tactPfNotOnDie, 0u);
}

TEST(Hierarchy, TactPrefetchDroppedWhenL1Resident)
{
    CacheHierarchy h(threeLevel());
    const Addr a = 0x31000;
    h.load(0, 0x400000, a, 0);
    Level from = h.prefetchToL1(0, a, 100000,
                               CacheHierarchy::PfKind::TactData);
    EXPECT_EQ(from, Level::None);
    EXPECT_EQ(h.stats().tactPfDropped, 1u);
}

TEST(Hierarchy, RingTrafficCountsLlcTransfers)
{
    CacheHierarchy h(threeLevel());
    uint64_t before = h.stats().ringTransfers;
    h.load(0, 0x400000, 0x123400, 0); // miss to memory crosses the ring
    EXPECT_GT(h.stats().ringTransfers, before);
}

TEST(Hierarchy, TwoLevelHasMoreRingTrafficPerMiss)
{
    // The paper's Section VI-E example: without the L2 every L1 miss
    // crosses the interconnect.
    CacheHierarchy three(threeLevel());
    CacheHierarchy two(twoLevel());
    for (uint32_t i = 0; i < 100; ++i) {
        Addr a = 0x700000 + (i % 4) * 64; // 4 hot lines
        three.load(0, 0x400000, a, i * 10);
        two.load(0, 0x400000, a, i * 10);
    }
    // Warm lines: three-level keeps them in L1/L2 (no ring); identical
    // here. Now force L1 misses that hit L2 (three-level) vs LLC (two).
    for (uint32_t i = 0; i < 50; ++i) {
        Addr a = 0x800000 + i * 64 * 64;
        three.load(0, 0x400000, a, 100000 + i * 100);
        two.load(0, 0x400000, a, 100000 + i * 100);
    }
    EXPECT_GE(two.stats().ringTransfers, three.stats().ringTransfers);
}

TEST(Hierarchy, InclusiveStreamPullLeavesTheL2CopyClean)
{
    // A line dirty only in an inclusive LLC keeps its dirty bit there
    // when the stream prefetcher pulls it into the L2, so dropping the
    // L2 copy writes nothing back, on the timed and the warm path.
    SimConfig cfg = baselineClient();
    cfg.l1d = CacheGeometry{4 * 1024, 4, 5};   // 16 sets
    cfg.l2 = CacheGeometry{16 * 1024, 8, 15};  // 32 sets
    cfg.llc = CacheGeometry{64 * 1024, 8, 40}; // 128 sets
    cfg.l1StridePrefetcher = false;
    const Addr x = 0x100000 + 10 * 64; // line 10 of its page
    const Addr same_l2_set = 32 * 64;  // and of its L1 set
    for (bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "timed");
        CacheHierarchy h(cfg);
        Cycle t = 0;
        auto access = [&](Addr a, bool store, bool timed) {
            t += 1000;
            if (timed && store)
                h.storeCommit(0, a, t);
            else if (timed)
                h.load(0, 0x400000, a, t);
            else
                h.warmAccess(0, 0x400000, a, t,
                             store ? CacheHierarchy::WarmKind::Store
                                   : CacheHierarchy::WarmKind::Load);
        };
        // Dirty x, then push it out of the L1 and the L2 with lines of
        // its L2 set but not its LLC set (k % 4 != 0): the L2 writes
        // its dirty data back to the LLC.
        access(x, true, !warm);
        for (Addr k = 1; k <= 20; ++k)
            if (k % 4)
                access(x + k * same_l2_set, false, !warm);
        ASSERT_FALSE(h.residentIn(0, x, Level::L2));
        ASSERT_TRUE(h.residentIn(0, x, Level::LLC));
        // An ascending run up to x confirms a stream that pulls x from
        // the LLC into the L2.
        for (Addr back = 3; back >= 1; --back)
            access(x - back * 64, false, !warm);
        ASSERT_TRUE(h.residentIn(0, x, Level::L2));
        ASSERT_FALSE(h.residentIn(0, x, Level::L1));
        // Drop x from the L2 on the timed path, which counts evictions.
        const uint64_t dirty_before = h.l2Stats(0)->dirtyEvictions;
        for (Addr k = 21; k <= 40; ++k)
            if (k % 4)
                access(x + k * same_l2_set, false, true);
        ASSERT_FALSE(h.residentIn(0, x, Level::L2));
        EXPECT_EQ(h.l2Stats(0)->dirtyEvictions, dirty_before);
    }
}

TEST(Hierarchy, ProbeDataReadyDoesNotChangeState)
{
    CacheHierarchy h(threeLevel());
    uint64_t fills = h.llcStats().fills + h.l1dStats(0).fills;
    Cycle t = h.probeDataReady(0, 0x9990c0, 1000);
    EXPECT_GT(t, 1000u);
    EXPECT_EQ(h.llcStats().fills + h.l1dStats(0).fills, fills);
}

TEST(Hierarchy, ResetStatsClearsEverything)
{
    CacheHierarchy h(threeLevel());
    h.load(0, 0x400000, 0x100c0, 0);
    h.resetStats();
    EXPECT_EQ(h.stats().loads, 0u);
    EXPECT_EQ(h.l1dStats(0).demandAccesses, 0u);
    EXPECT_EQ(h.dramStats().reads, 0u);
}

} // namespace
} // namespace catchsim

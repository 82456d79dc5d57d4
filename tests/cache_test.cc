/**
 * @file
 * Unit tests for the set-associative cache array: lookup/fill/invalidate
 * semantics, LRU victim selection, in-flight (readyAt) tracking and the
 * fill-merge rule.
 */

#include <gtest/gtest.h>

#include <string>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/state_io.hh"

namespace catchsim
{
namespace
{

CacheGeometry
tinyGeom()
{
    // 2 sets x 2 ways x 64 B lines = 256 B.
    return CacheGeometry{256, 2, 5};
}

TEST(Cache, MissThenHit)
{
    Cache c("t", tinyGeom());
    EXPECT_EQ(c.lookup(0x1000), nullptr);
    c.fill(0x1000, false, 0, FillSource::Demand);
    EXPECT_NE(c.lookup(0x1000), nullptr);
    EXPECT_EQ(c.stats().demandAccesses, 2u);
    EXPECT_EQ(c.stats().demandHits, 1u);
}

TEST(Cache, PeekDoesNotTouchStats)
{
    Cache c("t", tinyGeom());
    c.fill(0x1000, false, 0, FillSource::Demand);
    c.peek(0x1000);
    c.peek(0x2000);
    EXPECT_EQ(c.stats().demandAccesses, 0u);
}

TEST(Cache, LruVictimIsOldest)
{
    Cache c("t", tinyGeom());
    // Set index = (addr>>6) & 1; use set 0 addresses: 0x000, 0x080...
    c.fill(0x000, false, 0, FillSource::Demand);
    c.fill(0x080, false, 0, FillSource::Demand);
    c.lookup(0x000); // make 0x000 the MRU
    Cache::Victim v = c.fill(0x100, false, 0, FillSource::Demand);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0x080u);
}

/** One set of four ways: every line below maps to it. */
CacheGeometry
oneSetGeom()
{
    return CacheGeometry{256, 4, 5};
}

TEST(CacheLru, VictimIsTheLeastRecentWay)
{
    Cache c("t", oneSetGeom());
    for (Addr a = 0; a < 4; ++a)
        c.fill(a * 64, false, 0, FillSource::Demand);
    c.lookup(0 * 64);
    c.lookup(2 * 64);
    Cache::Victim v = c.fill(4 * 64, false, 0, FillSource::Demand);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 1u * 64);
}

TEST(CacheLru, VictimIsTheLowestWayOnATie)
{
    // Stamps only tie in a restored snapshot; the victim scan must still
    // pick deterministically. Overwrite the RLRU record's four stamps
    // (the last 32 bytes) with ways 1 and 3 tied for least recent.
    Cache src("t", oneSetGeom());
    for (Addr a = 0; a < 4; ++a)
        src.fill(a * 64, false, 0, FillSource::Demand);
    StateSink sink;
    src.saveWarmState(sink);
    std::string bytes = sink.take();
    const uint64_t stamps[4] = {5, 2, 7, 2};
    for (int w = 0; w < 4; ++w)
        for (int b = 0; b < 8; ++b)
            bytes[bytes.size() - 32 + 8 * w + b] =
                static_cast<char>((stamps[w] >> (8 * b)) & 0xff);
    Cache c("t", oneSetGeom());
    StateSource in(bytes);
    ASSERT_TRUE(c.loadWarmState(in));
    Cache::Victim v = c.fill(4 * 64, false, 0, FillSource::Demand);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 1u * 64);
}

TEST(CacheLru, InvalidWayBeatsTheLruVictim)
{
    Cache c("t", oneSetGeom());
    for (Addr a = 0; a < 4; ++a)
        c.fill(a * 64, false, 0, FillSource::Demand);
    c.invalidate(3 * 64); // the most recent way
    Cache::Victim v = c.fill(4 * 64, false, 0, FillSource::Demand);
    EXPECT_FALSE(v.valid);
    EXPECT_NE(c.peek(0 * 64), nullptr) << "LRU line must survive";
    EXPECT_NE(c.peek(4 * 64), nullptr);
    EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(CacheLru, MergeRefreshesRecency)
{
    Cache c("t", oneSetGeom());
    for (Addr a = 0; a < 4; ++a)
        c.fill(a * 64, false, 0, FillSource::Demand);
    c.fill(0 * 64, true, 0, FillSource::Writeback); // merge into way 0
    Cache::Victim v = c.fill(4 * 64, false, 0, FillSource::Demand);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 1u * 64);
}

TEST(CacheLru, MruIsNeverTheNextVictimIn2Way)
{
    Cache c("t", CacheGeometry{128, 2, 5}); // one set, two ways
    c.fill(0 * 64, false, 0, FillSource::Demand);
    c.fill(1 * 64, false, 0, FillSource::Demand);
    for (int i = 0; i < 100; ++i) {
        Addr touched = static_cast<Addr>(i % 2) * 64;
        c.lookup(touched);
        StateSink sink;
        c.saveWarmState(sink);
        Cache probe("t", CacheGeometry{128, 2, 5});
        StateSource in(sink.bytes());
        ASSERT_TRUE(probe.loadWarmState(in));
        Cache::Victim v = probe.fill(2 * 64, false, 0, FillSource::Demand);
        ASSERT_TRUE(v.valid);
        EXPECT_NE(v.addr, touched);
    }
}

TEST(Cache, DirtyVictimReported)
{
    Cache c("t", tinyGeom());
    c.fill(0x000, true, 0, FillSource::Demand);
    c.fill(0x080, false, 0, FillSource::Demand);
    Cache::Victim v = c.fill(0x100, false, 0, FillSource::Demand);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(Cache, FillMergeKeepsEarliestReadyAt)
{
    Cache c("t", tinyGeom());
    c.fill(0x1000, false, 500, FillSource::StridePf);
    c.fill(0x1000, false, 200, FillSource::TactPf); // earlier data wins
    const CacheLine *line = c.peek(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->readyAt, 200u);
    // A merge is not an eviction.
    EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(Cache, FillMergePreservesDirty)
{
    Cache c("t", tinyGeom());
    c.fill(0x1000, true, 0, FillSource::Demand);
    c.fill(0x1000, false, 0, FillSource::Demand);
    EXPECT_TRUE(c.peek(0x1000)->dirty);
}

TEST(Cache, WritebackMergeAdoptsPrefetchedCopy)
{
    // Regression: a writeback landing on a prefetched copy proves the
    // line was wanted. The merge must take over source/fillLevel so the
    // line's eventual eviction is not misattributed to a useless
    // prefetch.
    Cache c("t", tinyGeom());
    c.fill(0x000, false, 0, FillSource::TactPf, Level::Mem);
    c.fill(0x000, true, 0, FillSource::Writeback, Level::L1); // merges
    const CacheLine *line = c.peek(0x000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->source, FillSource::Writeback);
    EXPECT_EQ(line->fillLevel, Level::L1);
    EXPECT_TRUE(line->dirty);
    // Force its eviction (fill the 2-way set with two more lines).
    c.fill(0x080, false, 0, FillSource::Demand);
    c.fill(0x100, false, 0, FillSource::Demand);
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().uselessPrefetchEvictions, 0u);
}

TEST(Cache, DemandMergeAdoptsPrefetchedCopy)
{
    Cache c("t", tinyGeom());
    c.fill(0x000, false, 0, FillSource::StreamPf, Level::Mem);
    c.fill(0x000, false, 0, FillSource::Demand, Level::LLC);
    EXPECT_EQ(c.peek(0x000)->source, FillSource::Demand);
    EXPECT_EQ(c.peek(0x000)->fillLevel, Level::LLC);
}

TEST(Cache, PrefetchMergeDoesNotLaunderProvenance)
{
    // The reverse direction must not upgrade: one prefetch landing on
    // another keeps the resident provenance, and an unused prefetched
    // line still counts as a useless-prefetch eviction.
    Cache c("t", tinyGeom());
    c.fill(0x000, false, 0, FillSource::StridePf);
    c.fill(0x000, false, 0, FillSource::TactPf); // merge: still a pf
    EXPECT_EQ(c.peek(0x000)->source, FillSource::StridePf);
    c.fill(0x080, false, 0, FillSource::Demand);
    c.fill(0x100, false, 0, FillSource::Demand); // evicts 0x000
    EXPECT_EQ(c.stats().evictions, 1u);
    EXPECT_EQ(c.stats().uselessPrefetchEvictions, 1u);
}

TEST(Cache, InvalidateReportsDirty)
{
    Cache c("t", tinyGeom());
    c.fill(0x1000, true, 0, FillSource::Demand);
    bool present = false;
    EXPECT_TRUE(c.invalidate(0x1000, &present));
    EXPECT_TRUE(present);
    EXPECT_EQ(c.peek(0x1000), nullptr);
    EXPECT_FALSE(c.invalidate(0x1000, &present));
    EXPECT_FALSE(present);
}

TEST(Cache, FillLevelStored)
{
    Cache c("t", tinyGeom());
    c.fill(0x1000, false, 100, FillSource::Demand, Level::LLC);
    EXPECT_EQ(c.peek(0x1000)->fillLevel, Level::LLC);
}

TEST(Cache, UselessPrefetchEvictionCounted)
{
    Cache c("t", tinyGeom());
    c.fill(0x000, false, 0, FillSource::TactPf);
    c.fill(0x080, false, 0, FillSource::Demand);
    c.fill(0x100, false, 0, FillSource::Demand); // evicts unused prefetch
    EXPECT_EQ(c.stats().uselessPrefetchEvictions, 1u);
}

/** Property: a cache never holds two copies of one line. */
TEST(CacheProperty, NoDuplicateLines)
{
    Cache c("t", CacheGeometry{4096, 4, 5});
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        Addr a = (rng.next() % 64) * 64;
        if (rng.percent(50))
            c.fill(a, rng.percent(30), 0, FillSource::Demand);
        else
            c.lookup(a);
    }
    // Re-fill every line and count how many distinct victims appear:
    // duplicates would surface as a line evicting itself.
    for (int i = 0; i < 64; ++i) {
        Addr a = static_cast<Addr>(i) * 64;
        Cache::Victim v = c.fill(a, false, 0, FillSource::Demand);
        if (v.valid) {
            EXPECT_NE(v.addr, a);
        }
    }
}

/** Property sweep: hit rate of a cyclic scan vs capacity. */
class CacheCapacity : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(CacheCapacity, CyclicScanHitRate)
{
    uint32_t lines_footprint = GetParam();
    Cache c("t", CacheGeometry{64 * 1024, 8, 5}); // 1024 lines
    auto pass = [&]() {
        for (uint32_t i = 0; i < lines_footprint; ++i) {
            Addr a = static_cast<Addr>(i) * 64;
            if (!c.lookup(a))
                c.fill(a, false, 0, FillSource::Demand);
        }
    };
    for (int p = 0; p < 4; ++p)
        pass();
    double hit = c.stats().hitRate();
    if (lines_footprint <= 1024) {
        EXPECT_GT(hit, 0.70); // fits: hits after the cold pass
    } else if (lines_footprint >= 2048) {
        EXPECT_LT(hit, 0.05); // full LRU cyclic cliff
    } else {
        // Marginal overflow: only the sets that drew 9+ lines thrash.
        EXPECT_LT(hit, 0.70);
    }
}

INSTANTIATE_TEST_SUITE_P(Footprints, CacheCapacity,
                         ::testing::Values(256u, 512u, 1024u, 1100u,
                                           2048u));

} // namespace
} // namespace catchsim

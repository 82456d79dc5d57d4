/**
 * @file
 * Randomised invariant checking for the cache hierarchy: drive long
 * random operation sequences (loads, stores, code fetches, TACT and
 * oracle prefetches) against every topology and then verify structural
 * invariants by probing the line population. This is the property-based
 * safety net for the inclusion/exclusion state machines.
 *
 * The mixed-traffic tests interleave the functional-warming entry
 * points (warmAccess, warmPrefetch) with demand traffic: warming
 * places lines through the same placement helpers as the demand paths,
 * so the exclusive-duplication and inclusive-hole invariants must hold
 * across any mix of warm and detailed accesses.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/hierarchy.hh"
#include "common/bitutil.hh"
#include "common/rng.hh"
#include "common/state_io.hh"
#include "sim/configs.hh"

namespace catchsim
{
namespace
{

/** Small geometry so random traffic exercises evictions heavily. */
SimConfig
tinyConfig(InclusionPolicy policy)
{
    SimConfig cfg = baselineSkx();
    cfg.l1i = CacheGeometry{4 * 1024, 4, 5};
    cfg.l1d = CacheGeometry{4 * 1024, 4, 5};
    cfg.l2 = CacheGeometry{16 * 1024, 8, 15};
    cfg.llc = CacheGeometry{64 * 1024, 8, 40};
    cfg.inclusion = policy;
    cfg.l1StridePrefetcher = true;
    cfg.l2StreamPrefetcher = true;
    return cfg;
}

struct Driver
{
    explicit Driver(const SimConfig &cfg) : h(cfg), rng(2024) {}

    void
    step(Cycle t)
    {
        Addr a = (rng.below(4096)) * 64; // 256 KB address pool
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2:
            h.load(0, 0x400000 + rng.below(64) * 4, a, t);
            break;
          case 3:
            h.storeCommit(0, a, t);
            break;
          case 4:
            h.codeFetch(0, 0x400000 + rng.below(512) * 64, t);
            break;
          case 5:
            h.prefetchToL1(0, a, t, CacheHierarchy::PfKind::TactData);
            break;
          case 6:
            h.prefetchToL1(0, a, t, CacheHierarchy::PfKind::Stride);
            break;
          default:
            h.inL2OrLlc(0, a);
            h.probeDataReady(0, a, t);
            break;
        }
    }

    /** One functional-warming access from the same address pool, so
     *  warm and demand traffic fight over the same sets. */
    void
    warmStep(Cycle t)
    {
        Addr a = (rng.below(4096)) * 64;
        switch (rng.below(4)) {
          case 0:
          case 1:
            h.warmAccess(0, 0x400000 + rng.below(64) * 4, a, t,
                         CacheHierarchy::WarmKind::Load);
            break;
          case 2:
            h.warmAccess(0, 0x400000 + rng.below(64) * 4, a, t,
                         CacheHierarchy::WarmKind::Store);
            break;
          default:
            if (rng.below(2))
                h.warmAccess(0, 0, 0x400000 + rng.below(512) * 64, t,
                             CacheHierarchy::WarmKind::Code);
            else
                h.warmPrefetch(0, a, CacheHierarchy::PfKind::TactData, t);
            break;
        }
    }

    CacheHierarchy h;
    Rng rng;
};

class HierarchyInvariants
    : public ::testing::TestWithParam<InclusionPolicy>
{
};

TEST_P(HierarchyInvariants, SurvivesRandomTrafficAndStaysConsistent)
{
    SimConfig cfg = tinyConfig(GetParam());
    if (GetParam() == InclusionPolicy::Nine) {
        cfg.hasL2 = false;
    }
    Driver d(cfg);
    for (Cycle t = 0; t < 60000; ++t)
        d.step(t * 7);

    const auto &stats = d.h.stats();
    // Conservation: every demand load is served exactly once.
    uint64_t served = 0;
    for (int l = 0; l < 4; ++l)
        served += stats.loadHits[l];
    EXPECT_EQ(served, stats.loads);

    // Every level participated.
    EXPECT_GT(stats.loadHits[0], 0u);
    EXPECT_GT(stats.loadHits[3], 0u);
    EXPECT_GT(d.h.llcStats().fills, 0u);
    EXPECT_GT(d.h.dramStats().reads, 0u);
    // Dirty data eventually reaches DRAM.
    EXPECT_GT(d.h.dramStats().writes, 0u);
}

TEST_P(HierarchyInvariants, NoLineIsLostForever)
{
    // After heavy traffic, any address must still be loadable with a
    // bounded latency (nothing gets wedged in an inconsistent state).
    SimConfig cfg = tinyConfig(GetParam());
    if (GetParam() == InclusionPolicy::Nine)
        cfg.hasL2 = false;
    Driver d(cfg);
    for (Cycle t = 0; t < 30000; ++t)
        d.step(t * 7);
    for (int i = 0; i < 256; ++i) {
        Addr a = static_cast<Addr>(d.rng.below(4096)) * 64;
        // Spread the probes in time so DRAM queueing stays realistic.
        MemResult r = d.h.load(0, 0x400000, a,
                               1000000000ULL + i * 500ULL);
        EXPECT_LT(r.latency, 5000u) << "addr " << a;
    }
}

TEST_P(HierarchyInvariants, DeterministicUnderSeed)
{
    SimConfig cfg = tinyConfig(GetParam());
    if (GetParam() == InclusionPolicy::Nine)
        cfg.hasL2 = false;
    Driver d1(cfg), d2(cfg);
    for (Cycle t = 0; t < 20000; ++t) {
        d1.step(t * 7);
        d2.step(t * 7);
    }
    EXPECT_EQ(d1.h.stats().loadHits[0], d2.h.stats().loadHits[0]);
    EXPECT_EQ(d1.h.dramStats().reads, d2.h.dramStats().reads);
    EXPECT_EQ(d1.h.stats().ringTransfers, d2.h.stats().ringTransfers);
}

INSTANTIATE_TEST_SUITE_P(Policies, HierarchyInvariants,
                         ::testing::Values(InclusionPolicy::Exclusive,
                                           InclusionPolicy::Inclusive,
                                           InclusionPolicy::Nine),
                         [](const auto &info) {
                             switch (info.param) {
                               case InclusionPolicy::Exclusive:
                                 return "Exclusive";
                               case InclusionPolicy::Inclusive:
                                 return "Inclusive";
                               default:
                                 return "Nine";
                             }
                         });

/**
 * Exclusive-LLC structural invariant: no line is simultaneously valid
 * in the L2 and the LLC. Checked by probing the whole address pool
 * after (and periodically during) seeded random traffic, across
 * several seeds.
 */
TEST(HierarchyExclusive, NoLineValidInBothL2AndLlc)
{
    for (uint64_t seed : {7u, 1234u, 998877u}) {
        SimConfig cfg = tinyConfig(InclusionPolicy::Exclusive);
        Driver d(cfg);
        d.rng = Rng(seed);
        auto probe_all = [&](Cycle t) {
            for (Addr a = 0; a < 4096; ++a) {
                Addr addr = a * 64;
                EXPECT_FALSE(d.h.residentIn(0, addr, Level::L2) &&
                             d.h.residentIn(0, addr, Level::LLC))
                    << "duplicated line " << std::hex << addr
                    << " (seed " << std::dec << seed << ", t " << t
                    << ")";
            }
        };
        for (Cycle t = 0; t < 40000; ++t) {
            d.step(t * 7);
            if (t % 10000 == 9999)
                probe_all(t);
        }
        probe_all(40000);
    }
}

/**
 * Inclusive-LLC structural invariant: every L2-resident line is also
 * LLC-resident (L2 contents are a subset of the LLC), under the same
 * randomized traffic.
 */
TEST(HierarchyInclusive, L2IsSubsetOfLlc)
{
    for (uint64_t seed : {7u, 1234u, 998877u}) {
        SimConfig cfg = tinyConfig(InclusionPolicy::Inclusive);
        Driver d(cfg);
        d.rng = Rng(seed);
        auto probe_all = [&](Cycle t) {
            for (Addr a = 0; a < 4096; ++a) {
                Addr addr = a * 64;
                EXPECT_FALSE(d.h.residentIn(0, addr, Level::L2) &&
                             !d.h.residentIn(0, addr, Level::LLC))
                    << "inclusion hole at " << std::hex << addr
                    << " (seed " << std::dec << seed << ", t " << t
                    << ")";
            }
        };
        for (Cycle t = 0; t < 40000; ++t) {
            d.step(t * 7);
            if (t % 10000 == 9999)
                probe_all(t);
        }
        probe_all(40000);
    }
}

/**
 * Exclusive-duplication invariant under mixed functional-warming and
 * demand traffic: interleaving warmAccess / warmPrefetch with the
 * demand paths (the exact mix a sampled run produces at every
 * warm-to-detailed transition) must never leave a line valid in both
 * the L2 and the LLC.
 */
TEST(HierarchyExclusive, NoDuplicationUnderMixedWarmAndDemandTraffic)
{
    for (uint64_t seed : {11u, 4242u, 777777u}) {
        SimConfig cfg = tinyConfig(InclusionPolicy::Exclusive);
        Driver d(cfg);
        d.rng = Rng(seed);
        auto probe_all = [&](Cycle t) {
            for (Addr a = 0; a < 4096; ++a) {
                Addr addr = a * 64;
                EXPECT_FALSE(d.h.residentIn(0, addr, Level::L2) &&
                             d.h.residentIn(0, addr, Level::LLC))
                    << "duplicated line " << std::hex << addr
                    << " (seed " << std::dec << seed << ", t " << t
                    << ")";
            }
        };
        // Alternate warm-heavy and demand-heavy phases like a sampled
        // run does, probing at every phase boundary.
        for (Cycle t = 0; t < 40000; ++t) {
            bool warm_phase = (t / 5000) % 2 == 0;
            if (warm_phase ? d.rng.below(4) != 0 : d.rng.below(4) == 0)
                d.warmStep(t * 7);
            else
                d.step(t * 7);
            if (t % 5000 == 4999)
                probe_all(t);
        }
    }
}

/**
 * Inclusive-hole invariant under the same mixed traffic: every
 * L2-resident line stays LLC-resident no matter how warm and demand
 * fills interleave.
 */
TEST(HierarchyInclusive, NoHoleUnderMixedWarmAndDemandTraffic)
{
    for (uint64_t seed : {11u, 4242u, 777777u}) {
        SimConfig cfg = tinyConfig(InclusionPolicy::Inclusive);
        Driver d(cfg);
        d.rng = Rng(seed);
        auto probe_all = [&](Cycle t) {
            for (Addr a = 0; a < 4096; ++a) {
                Addr addr = a * 64;
                EXPECT_FALSE(d.h.residentIn(0, addr, Level::L2) &&
                             !d.h.residentIn(0, addr, Level::LLC))
                    << "inclusion hole at " << std::hex << addr
                    << " (seed " << std::dec << seed << ", t " << t
                    << ")";
            }
        };
        for (Cycle t = 0; t < 40000; ++t) {
            bool warm_phase = (t / 5000) % 2 == 0;
            if (warm_phase ? d.rng.below(4) != 0 : d.rng.below(4) == 0)
                d.warmStep(t * 7);
            else
                d.step(t * 7);
            if (t % 5000 == 4999)
                probe_all(t);
        }
    }
}

/**
 * Warm/detailed placement parity: functional warming must leave every
 * line in the levels the detailed paths would have put it in. One
 * hierarchy runs a seeded sequence through load / storeCommit /
 * codeFetch / prefetchToL1(TactData), a second runs the same sequence
 * through warmAccess and the warm TACT prefetch, and residency must
 * agree for every pool line at L1, L2 and the LLC, under every
 * inclusion policy with and without an L2.
 */
TEST(HierarchyParity, WarmAndDetailedPathsPlaceLinesIdentically)
{
    using WK = CacheHierarchy::WarmKind;
    const struct
    {
        InclusionPolicy policy;
        bool hasL2;
    } shapes[] = {
        {InclusionPolicy::Exclusive, true},
        {InclusionPolicy::Inclusive, true},
        {InclusionPolicy::Inclusive, false},
        {InclusionPolicy::Nine, true},
        {InclusionPolicy::Nine, false},
    };
    const Addr code_base = 0x400000;
    for (const auto &s : shapes) {
        SimConfig cfg = tinyConfig(s.policy);
        cfg.hasL2 = s.hasL2;
        CacheHierarchy detailed(cfg), warm(cfg);
        Rng rng(31337);
        for (Cycle t = 0; t < 30000; ++t) {
            Cycle now = t * 7;
            Addr a = rng.below(4096) * 64;
            Addr pc = code_base + rng.below(64) * 4;
            switch (rng.below(6)) {
              case 0:
              case 1:
                detailed.load(0, pc, a, now);
                warm.warmAccess(0, pc, a, now, WK::Load);
                break;
              case 2:
                detailed.storeCommit(0, a, now);
                warm.warmAccess(0, pc, a, now, WK::Store);
                break;
              case 3: {
                Addr code = code_base + rng.below(512) * 64;
                detailed.codeFetch(0, code, now);
                warm.warmAccess(0, 0, code, now, WK::Code);
                break;
              }
              default:
                detailed.prefetchToL1(0, a, now,
                                      CacheHierarchy::PfKind::TactData);
                warm.warmPrefetch(0, a, CacheHierarchy::PfKind::TactData,
                                  now);
                break;
            }
        }
        auto check = [&](Addr addr) {
            for (Level l : {Level::L1, Level::L2, Level::LLC})
                EXPECT_EQ(detailed.residentIn(0, addr, l),
                          warm.residentIn(0, addr, l))
                    << "policy " << static_cast<int>(s.policy) << ", L2 "
                    << s.hasL2 << ", level " << static_cast<int>(l)
                    << ", addr " << std::hex << addr;
        };
        for (Addr a = 0; a < 4096; ++a)
            check(a * 64);
        for (Addr a = 0; a < 512; ++a)
            check(code_base + a * 64);
    }
}

/** Exclusive-specific: an L2 hit must not also be LLC-resident after
 *  the hierarchy settles (no silent duplication). */
TEST(HierarchyExclusive, NoSteadyStateDuplication)
{
    SimConfig cfg = tinyConfig(InclusionPolicy::Exclusive);
    cfg.l1StridePrefetcher = false;
    cfg.l2StreamPrefetcher = false;
    CacheHierarchy h(cfg);
    // Touch a handful of lines repeatedly: they live in L1/L2; the LLC
    // holds only victims. Duplication would show as LLC fills >> L2
    // evictions.
    for (int round = 0; round < 50; ++round)
        for (Addr a = 0; a < 16; ++a)
            h.load(0, 0x400000, 0x10000 + a * 64, round * 1000 + a);
    EXPECT_LE(h.llcStats().fills, h.l2Stats(0)->evictions + 1);
}

/**
 * Snapshot-format golden: FNV-1a of saveWarmState() after a fixed
 * seeded mix of demand loads, stores, code fetches, stride and TACT
 * prefetches and functional-warming accesses, for each inclusion
 * policy. Pins every line's tag/dirty/readyAt/provenance, the LRU
 * stamps and the prefetcher tables byte for byte, so warm-state stores
 * written by an earlier build keep hitting, and any change to victim
 * choice or DRAM timing shows up here.
 */
TEST(HierarchySnapshot, WarmStateBytesArePinned)
{
    const struct
    {
        InclusionPolicy policy;
        uint64_t hash;
    } goldens[] = {
        {InclusionPolicy::Exclusive, 17544523935424171629ULL},
        {InclusionPolicy::Inclusive, 4879091336401497965ULL},
        {InclusionPolicy::Nine, 3896069611900318958ULL},
    };
    for (const auto &g : goldens) {
        SimConfig cfg = tinyConfig(g.policy);
        if (g.policy == InclusionPolicy::Nine)
            cfg.hasL2 = false;
        Driver d(cfg);
        for (Cycle t = 0; t < 20000; ++t) {
            if (t % 4 == 3)
                d.warmStep(t * 7);
            else
                d.step(t * 7);
        }
        StateSink sink;
        d.h.saveWarmState(sink);
        const std::string &bytes = sink.bytes();
        EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), g.hash)
            << "policy " << static_cast<int>(g.policy) << ", "
            << bytes.size() << " bytes";
    }
}

} // namespace
} // namespace catchsim

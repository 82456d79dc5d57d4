/**
 * @file
 * Unit tests for the common utilities: bit helpers, RNG, saturating
 * counters, histograms, stats helpers, the issue calendar and busy
 * timeline, and SimConfig validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bitutil.hh"
#include "common/busy_timeline.hh"
#include "common/env.hh"
#include "common/issue_calendar.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/sim_config.hh"
#include "common/stats.hh"

namespace catchsim
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(BitUtil, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtil, Mix64SpreadsBits)
{
    // Consecutive inputs must land far apart (used for table indexing).
    std::set<uint64_t> low_bits;
    for (uint64_t i = 0; i < 64; ++i)
        low_bits.insert(mix64(i) & 63);
    EXPECT_GT(low_bits.size(), 32u);
}

TEST(BitUtil, HashPcFitsWidth)
{
    for (uint64_t pc = 0x400000; pc < 0x400400; pc += 4)
        EXPECT_LT(hashPc(pc, 10), 1024u);
}

TEST(LineAddr, Alignment)
{
    EXPECT_EQ(lineAddr(0x1000), 0x1000u);
    EXPECT_EQ(lineAddr(0x103f), 0x1000u);
    EXPECT_EQ(lineAddr(0x1040), 0x1040u);
    EXPECT_EQ(pageAddr(0x1fff), 0x1000u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, PercentRoughlyCalibrated)
{
    Rng rng(3);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.percent(30);
    EXPECT_NEAR(hits, 3000, 300);
}

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.max(), 3u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_TRUE(c.saturated());
    EXPECT_EQ(c.value(), 3u);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, PredictTakenThreshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.predictTaken());
    c.increment();
    EXPECT_TRUE(c.predictTaken());
}

TEST(Histogram, FractionAtLeast)
{
    Histogram h(10, 11); // buckets 0-9, 10-19, ..., 100+
    h.add(5);
    h.add(85);
    h.add(95);
    h.add(100);
    EXPECT_DOUBLE_EQ(h.fractionAtLeast(80), 0.75);
    EXPECT_DOUBLE_EQ(h.fractionAtLeast(0), 1.0);
    EXPECT_EQ(h.samples(), 4u);
}

TEST(Histogram, ClampsOverflow)
{
    Histogram h(10, 5);
    h.add(1000000);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_DOUBLE_EQ(h.fractionAtLeast(40), 1.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.1, 1.1, 1.1}), 1.1, 1e-12);
}

TEST(Stats, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.0841), "+8.41%");
    EXPECT_EQ(formatPercent(-0.0779), "-7.79%");
}

/**
 * The calendar contract, run against both representations: the port
 * ring (IssueCalendar) and the one-port interval timeline
 * (BusyTimeline).
 */
template <class Cal>
class CalendarContract : public ::testing::Test
{
};

/** Names the typed instances after their calendar type. */
struct CalendarName
{
    template <class Cal>
    static std::string
    GetName(int)
    {
        return std::is_same_v<Cal, BusyTimeline> ? "BusyTimeline"
                                                 : "IssueCalendar";
    }
};

using CalendarTypes = ::testing::Types<IssueCalendar, BusyTimeline>;
TYPED_TEST_SUITE(CalendarContract, CalendarTypes, CalendarName);

/** The most ports a calendar of type @p Cal can have. */
template <class Cal>
constexpr uint32_t kMaxPorts = std::is_same_v<Cal, BusyTimeline> ? 1 : 255;

/** A calendar of type @p Cal; a BusyTimeline always has one port. */
template <class Cal>
Cal
makeCalendar(uint32_t ports, uint32_t window = 16384)
{
    if constexpr (std::is_same_v<Cal, BusyTimeline>) {
        EXPECT_EQ(ports, 1u);
        return BusyTimeline(window);
    } else {
        return IssueCalendar(ports, window);
    }
}

TYPED_TEST(CalendarContract, RespectsPerCyclePorts)
{
    const uint32_t ports = std::min(2u, kMaxPorts<TypeParam>);
    auto cal = makeCalendar<TypeParam>(ports);
    for (uint32_t i = 0; i < ports; ++i)
        EXPECT_EQ(cal.schedule(10), 10u);
    EXPECT_EQ(cal.schedule(10), 11u); // one more in the same cycle spills
}

TYPED_TEST(CalendarContract, FutureReservationDoesNotBlockPresent)
{
    // The regression the calendar exists to prevent: an op scheduled far
    // in the future must not make the port look busy now.
    auto cal = makeCalendar<TypeParam>(1);
    EXPECT_EQ(cal.schedule(1000), 1000u);
    EXPECT_EQ(cal.schedule(5), 5u);
    EXPECT_EQ(cal.schedule(6), 6u);
}

TYPED_TEST(CalendarContract, MultiSlotOccupancy)
{
    auto cal = makeCalendar<TypeParam>(1);
    EXPECT_EQ(cal.schedule(0, 3), 0u); // occupies cycles 0,1,2
    EXPECT_EQ(cal.schedule(0), 3u);
}

TYPED_TEST(CalendarContract, WindowSlides)
{
    auto cal = makeCalendar<TypeParam>(1, 64);
    cal.schedule(0);
    EXPECT_EQ(cal.schedule(1000), 1000u);
    // Old cycles left the window; a stale request clamps to the floor.
    Cycle c = cal.schedule(1);
    EXPECT_GE(c, 1000u - 64u);
}

/**
 * Reference calendar for the differential test below: the plain
 * per-cycle scan, which steps over full cycles one at a time and
 * indexes a stamped ring with a modulo. IssueCalendar and BusyTimeline
 * must return exactly what this returns.
 */
class PerCycleCalendar
{
  public:
    explicit PerCycleCalendar(uint32_t ports, uint32_t window = 16384)
        : ports_(ports), slots_(window, 0)
    {
    }

    Cycle
    schedule(Cycle desired, uint32_t slots = 1)
    {
        const size_t w = slots_.size();
        if (desired > maxSeen_)
            maxSeen_ = desired;
        Cycle floor = maxSeen_ >= w ? maxSeen_ - w + 1 : 0;
        Cycle c = desired < floor ? floor : desired;
        uint32_t remaining = slots;
        Cycle start = c;
        while (true) {
            if (c > maxSeen_)
                maxSeen_ = c;
            uint64_t &slot = slots_[c % w];
            uint32_t used = (slot >> 8) == c
                                ? static_cast<uint32_t>(slot & 0xff)
                                : 0;
            uint32_t free_here = ports_ > used ? ports_ - used : 0;
            if (free_here == 0) {
                if (remaining == slots)
                    start = c + 1; // haven't started issuing yet
                ++c;
                continue;
            }
            uint32_t take = free_here < remaining ? free_here : remaining;
            slot = (c << 8) | (used + take);
            remaining -= take;
            if (remaining == 0)
                return start;
            ++c;
        }
    }

    /** The last cycle asked for or probed. */
    Cycle maxSeen() const { return maxSeen_; }

  private:
    uint32_t ports_;
    std::vector<uint64_t> slots_;
    Cycle maxSeen_ = 0;
};

/**
 * Seeded episodes for the differential test. Each draws a port count
 * (1 for BusyTimeline; 1-4, sometimes 255, for IssueCalendar), a
 * window and one of four call patterns:
 *  - mixed: short claims, unpipelined ones of up to 100 slots,
 *    zero-slot probes, requests below the window floor and jumps of
 *    several windows;
 *  - backlog: claims outpace the clock, so a standing backlog deeper
 *    than window/2 sits between the request and the first free cycle;
 *  - fragmented: short claims scattered over the whole window, which
 *    leaves as many busy runs and gaps as the window can hold;
 *  - overlong: now and then a claim ending more than one window past
 *    the newest cycle seen, so it wraps the ring onto its own slots.
 * Counts the calls made in @p calls.
 */
template <class Cal>
void
runDifferentialEpisodes(uint64_t seed, int episodes, int calls_per_episode,
                        uint64_t &calls)
{
    Rng rng(seed);
    for (int episode = 0; episode < episodes; ++episode) {
        const uint32_t ports =
            kMaxPorts<Cal> == 1 ? 1
            : rng.percent(5)    ? 255
                                : static_cast<uint32_t>(rng.range(1, 4));
        const int pattern = episode % 4;
        // The reference scans a backlog cycle by cycle, so the
        // patterns that keep one stay at smaller windows.
        const uint32_t window =
            16u << rng.below(pattern == 0 || pattern == 2 ? 11 : 7);
        const uint32_t advance = static_cast<uint32_t>(rng.range(1, 40));
        Cal fast = makeCalendar<Cal>(ports, window);
        PerCycleCalendar ref(ports, window);
        Cycle now = rng.below(1000);
        for (int i = 0; i < calls_per_episode; ++i, ++calls) {
            Cycle desired = now + rng.below(64);
            uint32_t slots = static_cast<uint32_t>(rng.range(1, 4));
            switch (pattern) {
              case 0: // mixed
                now += rng.below(advance);
                desired = now + rng.below(64);
                switch (rng.below(40)) {
                  case 0: // below the window floor
                    desired = now > 2 * window
                                  ? now - rng.below(2 * window)
                                  : 0;
                    break;
                  case 1: // jump several windows ahead
                    now += window * rng.range(1, 3) + rng.below(window);
                    desired = now;
                    break;
                  default:
                    break;
                }
                switch (rng.below(20)) {
                  case 0: slots = 0; break;
                  case 1:
                  case 2: slots = static_cast<uint32_t>(rng.range(1, 100));
                          break;
                  default: break;
                }
                break;
              case 1: // backlog
                // Hold the backlog between 5/8 and 3/4 of a window.
                if (ref.maxSeen() > now + window / 2 + window / 8)
                    now += rng.range(1, window / 8);
                desired = rng.percent(10) ? now + rng.below(window)
                                          : now + rng.below(8);
                slots = ports * static_cast<uint32_t>(rng.range(1, 12));
                break;
              case 2: // fragmented
                now += rng.below(3);
                desired = now + rng.below(window);
                slots = rng.percent(10) ? 0 : slots;
                break;
              default: // overlong
                now += rng.below(advance);
                if (rng.percent(3)) {
                    const Cycle back = rng.below(window / 2);
                    desired = ref.maxSeen() > back ? ref.maxSeen() - back
                                                   : 0;
                    slots = ports * (window + 1 +
                                     static_cast<uint32_t>(
                                         rng.below(window)));
                }
                break;
            }
            const Cycle want = ref.schedule(desired, slots);
            ASSERT_EQ(fast.schedule(desired, slots), want)
                << "episode " << episode << " (pattern " << pattern
                << ") call " << i << ": ports " << ports << ", window "
                << window << ", desired " << desired << ", slots "
                << slots;
        }
    }
}

/**
 * Differential check: over 1.2 M seeded calls per type, each calendar
 * returns exactly what the per-cycle reference returns.
 */
TYPED_TEST(CalendarContract, MatchesPerCycleReference)
{
    uint64_t calls = 0;
    runDifferentialEpisodes<TypeParam>(0x5ca1e, 240, 5000, calls);
    EXPECT_GE(calls, 1000000u);
}

TEST(SimConfig, DefaultsValidate)
{
    SimConfig cfg;
    EXPECT_TRUE(cfg.validate().ok());
    EXPECT_TRUE(cfg.hasL2);
    EXPECT_EQ(cfg.llc.numSets(), 8192u);
}

TEST(SimConfig, RemoveL2AdjustsWays)
{
    SimConfig cfg;
    cfg.removeL2(6656 * 1024);
    EXPECT_FALSE(cfg.hasL2);
    EXPECT_EQ(cfg.inclusion, InclusionPolicy::Nine);
    EXPECT_TRUE(isPowerOfTwo(cfg.llc.numSets()));
    EXPECT_EQ(cfg.llc.sizeBytes, 6656u * 1024u);
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(SimConfig, EnableCatchTurnsEverythingOn)
{
    SimConfig cfg;
    cfg.enableCatch();
    EXPECT_TRUE(cfg.criticality.enabled);
    EXPECT_TRUE(cfg.tact.cross && cfg.tact.deepSelf && cfg.tact.feeder &&
                cfg.tact.code);
    EXPECT_TRUE(cfg.validate().ok());
}

/** Each port count must fit an issue calendar: 1..255 per cycle. */
void
expectPortRange(uint32_t SimConfig::*field)
{
    SimConfig cfg;
    for (uint32_t bad : {0u, 256u}) {
        cfg.*field = bad;
        auto v = cfg.validate();
        ASSERT_FALSE(v.ok()) << bad;
        EXPECT_EQ(v.error().category, ErrorCategory::Config);
    }
    for (uint32_t good : {1u, 255u}) {
        cfg.*field = good;
        EXPECT_TRUE(cfg.validate().ok()) << good;
    }
}

TEST(SimConfig, AluPortsOutsideOneTo255AreRejected)
{
    expectPortRange(&SimConfig::aluPorts);
}

TEST(SimConfig, LoadPortsOutsideOneTo255AreRejected)
{
    expectPortRange(&SimConfig::loadPorts);
}

TEST(SimConfig, StorePortsOutsideOneTo255AreRejected)
{
    expectPortRange(&SimConfig::storePorts);
}

TEST(SimConfig, FpPortsOutsideOneTo255AreRejected)
{
    expectPortRange(&SimConfig::fpPorts);
}

TEST(SimConfig, ZeroStoreQueueIsRejected)
{
    SimConfig cfg;
    cfg.storeQueueSize = 0;
    auto v = cfg.validate();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().category, ErrorCategory::Config);
    cfg.storeQueueSize = 1;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(Logging, ConcatFormatsHeterogeneousArguments)
{
    EXPECT_EQ(detail::concat("jobs=", 8, ", frac=", 0.5), "jobs=8, frac=0.5");
}

TEST(Logging, WarnAndInformNeverStopTheRun)
{
    warn("common_test: expected warning, ignore (", 42, ")");
    inform("common_test: expected inform, ignore");
}

TEST(Env, TypedHelpersParseAndFallBack)
{
    // Single-threaded here, per the env.hh startup contract.
    ::setenv("CATCH_ENV_TEST_KNOB", "230", 1);
    EXPECT_EQ(envU64("CATCH_ENV_TEST_KNOB", 7), 230u);
    EXPECT_EQ(envString("CATCH_ENV_TEST_KNOB"), "230");
    EXPECT_FALSE(envFlag("CATCH_ENV_TEST_KNOB")) << "flag means '1...'";

    ::setenv("CATCH_ENV_TEST_KNOB", "1", 1);
    EXPECT_TRUE(envFlag("CATCH_ENV_TEST_KNOB"));

    // Strict parse: a malformed value runs the fallback and warns
    // once, naming the knob, however often it is read.
    for (const char *bad : {"12junk", "1e5", "-1", " 5", "+5",
                            "99999999999999999999"}) {
        ::setenv("CATCH_ENV_TEST_KNOB", bad, 1);
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(envU64("CATCH_ENV_TEST_KNOB", 7), 7u) << bad;
        EXPECT_EQ(envU64("CATCH_ENV_TEST_KNOB", 7), 7u) << bad;
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("CATCH_ENV_TEST_KNOB='"), std::string::npos)
            << bad << ": " << err;
        EXPECT_EQ(err.find("warn:"), err.rfind("warn:"))
            << bad << ": " << err;
    }

    ::unsetenv("CATCH_ENV_TEST_KNOB");
    EXPECT_EQ(envU64("CATCH_ENV_TEST_KNOB", 7), 7u);
    EXPECT_EQ(envString("CATCH_ENV_TEST_KNOB", "dflt"), "dflt");
    EXPECT_FALSE(envFlag("CATCH_ENV_TEST_KNOB"));
}

} // namespace
} // namespace catchsim

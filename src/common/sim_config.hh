/**
 * @file
 * SimConfig: every knob of the simulated machine in one value type.
 *
 * Defaults model the paper's primary baseline: a Skylake-server-like core
 * (4-wide, 224-entry ROB, 3.2 GHz) with 32 KB L1I/L1D (5 cycles), 1 MB
 * private L2 (15-cycle round trip), a 5.5 MB shared exclusive LLC
 * (40-cycle round trip) and DDR4-2400 x 2 channels.
 */

#ifndef CATCHSIM_COMMON_SIM_CONFIG_HH_
#define CATCHSIM_COMMON_SIM_CONFIG_HH_

#include <cstdint>
#include <string>

#include "common/error.hh"
#include "common/types.hh"

namespace catchsim
{

/** Geometry and latency of one cache level. */
struct CacheGeometry
{
    uint64_t sizeBytes = 0;
    uint32_t ways = 8;
    uint32_t latency = 5; ///< round-trip load-to-use latency in core cycles

    uint32_t numSets() const { return sizeBytes / (kLineBytes * ways); }

    bool operator==(const CacheGeometry &) const = default;
};

/** How the LLC relates to the inner levels. */
enum class InclusionPolicy : uint8_t
{
    Exclusive, ///< LLC holds only lines evicted from L2 (SKX server style)
    Inclusive, ///< LLC back-invalidates inner copies on eviction (client)
    Nine,      ///< non-inclusive non-exclusive (used for the no-L2 configs)
};

/** Oracle knob: demote hits at one level to the next level's latency. */
enum class DemoteMode : uint8_t
{
    None,
    L1ToL2All,      ///< every L1 hit is served at L2 latency (Fig 4)
    L1ToL2NonCrit,  ///< only non-critical L1 hits are demoted
    L2ToLlcAll,
    L2ToLlcNonCrit,
    LlcToMemAll,
    LlcToMemNonCrit,
};

/** DDR4 channel/rank/bank organisation and timing (in core cycles). */
struct DramConfig
{
    uint32_t channels = 2;
    uint32_t ranksPerChannel = 2;
    uint32_t banksPerRank = 8;
    uint32_t rowBytes = 2048;

    // DDR4-2400 15-15-15-39 converted to 3.2 GHz core cycles
    // (1 DRAM clock = 0.833 ns = 2.67 core cycles).
    uint32_t tCas = 40;
    uint32_t tRcd = 40;
    uint32_t tRp = 40;
    uint32_t tRas = 104;
    uint32_t burstCycles = 11;  ///< BL8 data transfer occupancy per access
    uint32_t controllerLat = 30; ///< queuing + controller + PHY overhead

    uint32_t writeQueueDepth = 32;
    uint32_t writeDrainWatermark = 24; ///< start a drain batch at this level
    uint32_t writeDrainBatch = 16;     ///< writes drained per batch

    // Refresh: all banks of a rank are blocked for tRfc every tRefi
    // (7.8 us / ~350 ns at 3.2 GHz core cycles).
    uint32_t tRefi = 24960;
    uint32_t tRfc = 1120;

    bool operator==(const DramConfig &) const = default;
};

/** Which criticality detector drives the critical-load table. */
enum class DetectorKind : uint8_t
{
    Ddg,       ///< the paper's buffered data-dependency graph
    Heuristic, ///< Tune/Subramaniam-style heuristics (for comparison)
};

/** Criticality-detection hardware parameters (Section IV-A of the paper). */
struct CriticalityConfig
{
    bool enabled = false;
    DetectorKind kind = DetectorKind::Ddg;
    uint32_t tableEntries = 32;   ///< critical-load-table capacity
    uint32_t tableWays = 8;       ///< 8-way set associative, LRU
    uint32_t confidenceBits = 2;
    uint64_t confResetInterval = 100000; ///< retired instrs between resets
    double graphFactor = 2.5;     ///< buffered rows as a multiple of ROB
    double walkFactor = 2.0;      ///< rows walked as a multiple of ROB
    uint32_t latencyQuantShift = 3; ///< E-C weights stored as latency >> 3
    uint32_t hashedPcBits = 10;   ///< lossy PC storage inside the graph

    bool operator==(const CriticalityConfig &) const = default;
};

/** TACT prefetcher parameters (Section IV-B). */
struct TactConfig
{
    bool cross = false;
    bool deepSelf = false;
    bool feeder = false;
    bool code = false;

    uint32_t triggerCacheSets = 8;
    uint32_t triggerCacheWays = 8;
    uint32_t triggerPcsPerPage = 4;
    uint32_t crossTrainInstances = 16; ///< instances per trigger candidate
    uint32_t crossCandidateWraps = 4;

    uint32_t deepMaxDistance = 16;
    uint32_t safeLengthCap = 32;

    /**
     * How far ahead (in feeder instances) the feeder runahead rides the
     * feeder's stride, per Fig 7's "SELF deep address prefetch of feeder
     * F". The chained target prefetch needs to out-run the feeder+LLC
     * serial latency, so this matches the deep-self distance rather than
     * the 4-instance learning window.
     */
    uint32_t feederDepth = 16;

    uint32_t codeRunaheadLines = 8; ///< max code lines prefetched per stall

    bool anyData() const { return cross || deepSelf || feeder; }
    bool any() const { return anyData() || code; }

    bool operator==(const TactConfig &) const = default;
};

/** Detailed cycle-accurate stepping vs SMARTS-style sampling. */
enum class SampleMode : uint8_t
{
    Detailed, ///< every instruction through the OoO core (paper figures)
    Sampled,  ///< functional warming + periodic detailed windows
};

/**
 * Sampled-simulation schedule. Each period of @ref intervalInstrs
 * instructions is split into functional warming (state updates only:
 * cache tags, replacement, branch predictor, TACT learning), then
 * @ref warmupInstrs detailed-but-unmeasured instructions to refill the
 * pipeline/timing state, then a measured detailed window of
 * @ref windowInstrs instructions. The schedule is driven purely by the
 * instruction counter, so it is bitwise-reproducible at any job count.
 */
struct SamplingConfig
{
    SampleMode mode = SampleMode::Detailed;
    // Validated against full detailed runs for baseline SKX and
    // CATCH-no-L2 only: at >= ~3 M instrs most quick-suite kernels land
    // within ~3% of detailed, but single kernels reach 6-9% at 2 M, and
    // CATCH over an L2 is not covered (omnetpp reads +36%). Shorter
    // runs need denser sampling (smaller interval) to get enough
    // windows. See docs/PERFORMANCE.md "Accuracy".
    uint64_t intervalInstrs = 20000; ///< period length (warm+warmup+window)
    uint64_t windowInstrs = 2000;    ///< measured detailed instrs per period
    uint64_t warmupInstrs = 2000;    ///< detailed-unmeasured instrs per period

    bool sampled() const { return mode == SampleMode::Sampled; }

    bool operator==(const SamplingConfig &) const = default;
};

/** Oracle-study knobs (Figs 3, 4 and 5). */
struct OracleConfig
{
    // Fig 3 / Fig 15: fixed latency adders per level.
    uint32_t latAddL1 = 0;
    uint32_t latAddL2 = 0;
    uint32_t latAddLlc = 0;

    // Fig 4: demotion studies.
    DemoteMode demote = DemoteMode::None;

    // Fig 5: zero-time critical prefetch of L2/LLC hits into L1.
    bool oraclePrefetch = false;
    uint32_t oraclePrefetchPcLimit = 0; ///< 0 means "all PCs" variant
    bool oracleCodeInL1 = false; ///< Fig 5 assumes all code hits the L1I

    bool operator==(const OracleConfig &) const = default;
};

/** Top-level machine configuration. */
struct SimConfig
{
    std::string name = "baseline-skx";

    // --- core ---
    uint32_t width = 4;        ///< alloc/retire width per cycle
    uint32_t robSize = 224;
    uint32_t renameLat = 2;    ///< D-to-E edge weight
    uint32_t redirectLat = 14; ///< branch mispredict fetch redirect
    uint32_t numArchRegs = 16;
    uint32_t storeQueueSize = 56;
    uint32_t fwdLatency = 5;   ///< store-to-load forwarding latency
    uint32_t aluPorts = 3;
    uint32_t loadPorts = 2;
    uint32_t storePorts = 1;
    uint32_t fpPorts = 2;

    // --- cache hierarchy ---
    bool hasL2 = true;
    InclusionPolicy inclusion = InclusionPolicy::Exclusive;
    CacheGeometry l1i{32 * 1024, 8, 5};
    CacheGeometry l1d{32 * 1024, 8, 5};
    CacheGeometry l2{1024 * 1024, 16, 15};
    CacheGeometry llc{5632 * 1024, 11, 40}; ///< 5.5 MB shared

    // --- baseline prefetchers ---
    bool l1StridePrefetcher = true;
    bool l2StreamPrefetcher = true;
    uint32_t streamDegree = 8; ///< lines prefetched ahead per stream

    DramConfig dram;
    CriticalityConfig criticality;
    TactConfig tact;
    OracleConfig oracle;
    SamplingConfig sampling;

    uint32_t numCores = 1;

    /** Convenience: full CATCH = criticality detection + all four TACTs. */
    void enableCatch();

    /** Removes the L2 and sets @p llc_bytes as the (NINE) LLC capacity. */
    void removeL2(uint64_t llc_bytes);

    /** Validates invariants; a config SimError describes the first
     *  violation. Library code never terminates on a bad config. */
    Expected<void> validate() const;

    /** Field-wise, so tests can check configFromJson(configToJson(c))
     *  against c. */
    bool operator==(const SimConfig &) const = default;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_SIM_CONFIG_HH_

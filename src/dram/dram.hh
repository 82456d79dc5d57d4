/**
 * @file
 * DDR4 main-memory model.
 *
 * Models channels, ranks, banks and open rows with the paper's
 * DDR4-2400 15-15-15-39 timing (expressed in 3.2 GHz core cycles),
 * per-channel data-bus occupancy, and batched write draining ("writes
 * are scheduled in batches to reduce channel turn-arounds", Section V).
 * Also counts activates/reads/writes/row-hits for the DRAM power model.
 */

#ifndef CATCHSIM_DRAM_DRAM_HH_
#define CATCHSIM_DRAM_DRAM_HH_

#include <cstdint>
#include <vector>

#include "common/busy_timeline.hh"
#include "common/sim_config.hh"
#include "common/types.hh"

namespace catchsim
{

/** Counters consumed by the power model and the bench harnesses. */
struct DramStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t activates = 0;
    uint64_t rowHits = 0;
    uint64_t rowMisses = 0;
    uint64_t writeDrains = 0;
    uint64_t refreshStalls = 0; ///< accesses delayed by a refresh window
    uint64_t totalReadLatency = 0;
    uint64_t totalBankWait = 0; ///< cycles reads waited for their bank
    uint64_t totalBusWait = 0;  ///< cycles bursts waited for the channel

    double
    avgReadLatency() const
    {
        return reads ? static_cast<double>(totalReadLatency) / reads : 0.0;
    }

    double
    rowHitRate() const
    {
        uint64_t t = rowHits + rowMisses;
        return t ? static_cast<double>(rowHits) / t : 0.0;
    }
};

/** Timing-and-state DDR4 model; one instance is shared by all cores. */
class Dram
{
  public:
    explicit Dram(const DramConfig &cfg);

    /**
     * Performs a read of the line containing @p addr issued at @p now.
     * @returns the access latency in core cycles (controller + queue +
     *          bank timing + burst)
     */
    uint64_t read(Addr addr, Cycle now);

    /**
     * Enqueues a write of the line containing @p addr. Writes complete
     * asynchronously; they consume bank/bus time when the write queue
     * drains, delaying later reads.
     */
    void write(Addr addr, Cycle now);

    const DramStats &stats() const { return stats_; }
    void resetStats() { stats_ = DramStats(); }

    uint32_t numBanks() const { return static_cast<uint32_t>(banks_.size()); }

  private:
    struct Bank
    {
        Addr openRow = kNoRow;
        Cycle activatedAt = 0;  ///< for tRAS accounting
        static constexpr Addr kNoRow = ~0ULL;
    };

    struct Channel
    {
        std::vector<Addr> writeQueue;
    };

    /** Index of the bank servicing @p addr (channel/rank/bank decode). */
    uint32_t bankIndex(Addr addr) const;
    uint32_t rankIndex(Addr addr) const;

    /** Earliest issue time respecting the rank's refresh blackouts. */
    Cycle afterRefresh(uint32_t rank, Cycle now);
    uint32_t channelIndex(Addr addr) const;
    Addr rowOf(Addr addr) const;

    /** Issues one access to the bank state machine; returns finish time. */
    Cycle access(Addr addr, Cycle now);

    /** Drains a batch of writes if the queue hit the watermark. */
    void maybeDrainWrites(uint32_t channel, Cycle now, bool force);

    DramConfig cfg_;
    std::vector<Bank> banks_;
    std::vector<BusyTimeline> bankCal_;  ///< bank command occupancy
    std::vector<Channel> channels_;
    std::vector<BusyTimeline> busCal_;   ///< channel data-bus occupancy
    std::vector<Cycle> rankRefreshAt_;   ///< next refresh start per rank
    DramStats stats_;
};

} // namespace catchsim

#endif // CATCHSIM_DRAM_DRAM_HH_

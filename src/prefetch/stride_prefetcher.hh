/**
 * @file
 * Baseline L1 PC-based stride prefetcher (Fu et al., MICRO '92 style),
 * prefetch distance 1 - exactly the baseline the paper assumes the L1
 * already has. TACT-Deep-Self extends this idea to deep distances for
 * critical PCs only.
 */

#ifndef CATCHSIM_PREFETCH_STRIDE_PREFETCHER_HH_
#define CATCHSIM_PREFETCH_STRIDE_PREFETCHER_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/sat_counter.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace catchsim
{

/** Per-load-PC stride detection with 2-bit confidence. */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(uint32_t entries = 256);

    /**
     * Trains on a demand load and, when the PC has a confident stride,
     * returns the distance-1 prefetch address.
     */
    std::optional<Addr> observe(Addr pc, Addr addr);

    /**
     * Exposes the learned stride for a PC (used by TACT-Deep-Self and
     * TACT-Feeder, which run ahead on the *baseline* stride table).
     * @returns true and fills @p stride_out when confident
     */
    bool stableStride(Addr pc, int64_t *stride_out) const;

    uint64_t issued() const { return issued_; }

    /** Serializes the table and issue counter (warming trains both). */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream; false on a malformed one. */
    bool loadWarmState(StateSource &src);

  private:
    /** The warmed-state section's layout, for save (Self const) and
     *  load alike; see common/state_io.hh. */
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    struct Entry
    {
        Addr pc = 0;
        bool valid = false;
        Addr lastAddr = 0;
        int64_t stride = 0;
        SatCounter conf{2, 0};
    };

    uint32_t indexOf(Addr pc) const;

    std::vector<Entry> table_;
    uint64_t issued_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_PREFETCH_STRIDE_PREFETCHER_HH_

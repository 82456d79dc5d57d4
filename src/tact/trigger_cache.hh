/**
 * @file
 * TACT Trigger Cache (Section IV-B1): a 64-entry, 8-way set-associative
 * cache indexed by 4 KB page address. Each entry remembers the first
 * four load PCs that touched the page during its residency; critical
 * target PCs look their page up here to obtain cross-trigger candidates.
 */

#ifndef CATCHSIM_TACT_TRIGGER_CACHE_HH_
#define CATCHSIM_TACT_TRIGGER_CACHE_HH_

#include <array>
#include <cstdint>
#include <vector>

#include "common/sim_config.hh"
#include "common/state_io.hh"
#include "common/types.hh"

namespace catchsim
{

class TriggerCache
{
  public:
    explicit TriggerCache(const TactConfig &cfg);

    /** Tracks a demand load touching its 4 KB page. */
    void onLoad(Addr pc, Addr addr);

    /**
     * Returns the first-touch PCs recorded for @p addr's page, oldest
     * first. Empty if the page is not resident.
     */
    std::vector<Addr> candidates(Addr addr) const;

    /** Serializes entries and the recency clock (warmed-state). */
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
        bool valid = false;
        Addr page = 0;
        std::array<Addr, 4> pcs{};
        uint32_t numPcs = 0;
        uint64_t lastUse = 0;
    };

    uint32_t setOf(Addr page) const;

    TactConfig cfg_;
    uint32_t sets_;
    uint32_t ways_;
    std::vector<Entry> entries_;
    uint64_t clock_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_TACT_TRIGGER_CACHE_HH_

/**
 * @file
 * IssueCalendar: a resource with a fixed number of issue slots per
 * cycle, booked in a sliding window of future cycles.
 *
 * A naive "next-free time per port" model breaks out-of-order schedules:
 * an op that becomes ready far in the future (e.g. dependent on a memory
 * load) would reserve a port *from its start time* and make the port
 * look busy for every intervening cycle, stalling younger ops that are
 * ready now. Real schedulers issue oldest-ready-first; a port idle
 * before a future issue is usable. The calendar therefore counts issues
 * per cycle and schedules each op at the first cycle >= its ready time
 * with spare slots. It models the OoO core's execution ports; the
 * one-port DRAM banks and buses, whose clocks jump thousands of cycles
 * between commands, use BusyTimeline (common/busy_timeline.hh), which
 * returns the same cycles.
 *
 * The window is a ring of one byte per cycle (16 KB at the default
 * size), so a core's four calendars stay in the host's cache. The ring
 * holds the exact counts of the newest `window` cycles up to maxSeen_,
 * the last cycle a call asked for or claimed. When maxSeen_ advances,
 * the slots of the cycles entering the window are zeroed; that is
 * cheap because a core's clock is dense. Cycles below the window floor
 * are never probed again, so overwriting their slots changes nothing:
 * schedule() returns exactly what a per-cycle scan of an unbounded
 * count array would return, for every call sequence.
 */

#ifndef CATCHSIM_COMMON_ISSUE_CALENDAR_HH_
#define CATCHSIM_COMMON_ISSUE_CALENDAR_HH_

#include <cstdint>
#include <cstring>
#include <memory>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace catchsim
{

class IssueCalendar
{
  public:
    /**
     * @param ports issue slots available per cycle, 1..255 (a cycle's
     *        count is one byte)
     * @param window how far ahead of the newest scheduled cycle an op
     *        can land, a power of two; far beyond any realistic wakeup
     *        spread
     */
    explicit IssueCalendar(uint32_t ports, uint32_t window = 16384)
        : ports_(static_cast<uint8_t>(ports)), mask_(window - 1),
          counts_(std::make_unique<uint8_t[]>(window))
    {
        CATCHSIM_ASSERT(ports >= 1 && ports <= 255,
                        "issue calendar ports out of range: ", ports);
        CATCHSIM_ASSERT(isPowerOfTwo(window),
                        "issue calendar window must be a power of two: ",
                        window);
    }

    /**
     * Schedules one issue at the first cycle >= @p desired with a spare
     * slot, occupying @p slots issue slots (an unpipelined op models its
     * occupancy by consuming several, in the earliest cycles with room).
     * Requests below the window floor are clamped to it (they would
     * have been scheduled long ago; rare and harmless).
     */
    Cycle
    schedule(Cycle desired, uint32_t slots = 1)
    {
        if (desired > maxSeen_)
            advance(desired);
        const Cycle floor = maxSeen_ > mask_ ? maxSeen_ - mask_ : 0;
        Cycle c = desired < floor ? floor : desired;
        // Locals: a byte store may alias any member, so the loop must
        // not read members after writing the ring.
        uint8_t *ring = counts_.get();
        const Cycle mask = mask_;
        const uint8_t ports = ports_;
        Cycle seen = maxSeen_;
        // Every cycle above maxSeen_ is empty, whatever its slot holds.
        while (c <= seen && ring[c & mask] == ports)
            ++c;
        const Cycle start = c;
        uint32_t remaining = slots;
        for (;;) {
            uint8_t &used = ring[c & mask];
            if (c > seen) {
                // The slot still holds the cycle one window older.
                seen = c;
                used = 0;
            }
            const uint32_t free_here = ports - used;
            const uint32_t take =
                free_here < remaining ? free_here : remaining;
            used = static_cast<uint8_t>(used + take);
            remaining -= take;
            if (remaining == 0)
                break;
            ++c;
        }
        maxSeen_ = seen;
        return start;
    }

  private:
    /** Moves maxSeen_ up to @p to, zeroing the cycles entering. */
    void
    advance(Cycle to)
    {
        const Cycle n = to - maxSeen_;
        uint8_t *ring = counts_.get();
        const size_t window = mask_ + 1;
        if (n >= window) {
            std::memset(ring, 0, window);
        } else {
            const size_t from = (maxSeen_ + 1) & mask_;
            const size_t head = n < window - from ? n : window - from;
            std::memset(ring + from, 0, head);
            std::memset(ring, 0, n - head);
        }
        maxSeen_ = to;
    }

    uint8_t ports_;
    Cycle mask_;
    /// Issues booked in cycle c, at c & mask_, for the window ending at
    /// maxSeen_.
    std::unique_ptr<uint8_t[]> counts_;
    Cycle maxSeen_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_ISSUE_CALENDAR_HH_

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
 * with spare slots. The same class models the OoO core's execution
 * ports and the DRAM banks and data buses, where an unpipelined command
 * books one slot in each of the cycles it occupies.
 *
 * Two representation choices keep it fast:
 *  - Lazy ring. Cycle c lives in ring slot c & mask_, packed as
 *    (c << 8 | count); a slot whose stored cycle is not c counts as
 *    empty, so sliding the window needs no zeroing (the DRAM banks jump
 *    thousands of cycles between commands, and clearing every
 *    intervening slot once dominated whole-simulator runtime).
 *  - Skip links. A contended DRAM bank sits behind a backlog of
 *    thousands of full cycles; stepping over them one at a time once
 *    cost more than the rest of an MP run together. Each full slot
 *    therefore carries a link to a later cycle, and every cycle between
 *    the two is full too. firstFree() follows the links and compresses
 *    the path it walked. A link stays true for as long as its slot
 *    holds the same cycle: a cycle at or above the window floor that
 *    is full stays full until it leaves the window, because its slot is
 *    only reused by a cycle one window later.
 *
 * schedule() returns exactly what a per-cycle scan of an eagerly zeroed
 * window would return, for every call sequence.
 */

#ifndef CATCHSIM_COMMON_ISSUE_CALENDAR_HH_
#define CATCHSIM_COMMON_ISSUE_CALENDAR_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace catchsim
{

class IssueCalendar
{
  public:
    /**
     * @param ports issue slots available per cycle, 1..255 (the count
     *        is packed into 8 bits of each ring slot)
     * @param window how far ahead of the newest scheduled cycle an op
     *        can land, a power of two of at most 65536 (a skip link is
     *        16 bits); far beyond any realistic wakeup spread
     */
    explicit IssueCalendar(uint32_t ports, uint32_t window = 16384)
        : ports_(ports), mask_(window - 1), slots_(window, 0),
          // Never read before written: a link is only followed from a
          // full slot, and filling the slot wrote its link.
          links_(std::make_unique_for_overwrite<uint16_t[]>(window))
    {
        CATCHSIM_ASSERT(ports >= 1 && ports <= 255,
                        "issue calendar ports out of range: ", ports);
        CATCHSIM_ASSERT(isPowerOfTwo(window) && window <= 65536,
                        "issue calendar window must be a power of two "
                        "<= 65536: ",
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
            maxSeen_ = desired;
        const Cycle floor = maxSeen_ > mask_ ? maxSeen_ - mask_ : 0;
        Cycle c = firstFree(desired < floor ? floor : desired);
        const Cycle start = c;
        // Locals, so the stores into the ring force no member reloads.
        const Cycle mask = mask_;
        uint64_t *ring = slots_.data();
        uint16_t *links = links_.get();
        uint64_t remaining = slots;
        if (ports_ == 1) {
            // Every claim fills its cycle. Each claim still to come
            // fills a later cycle of its own and the cycles skipped in
            // between are full already, so by the time this call
            // returns the next `remaining` cycles are full too.
            while (remaining > 0) {
                const size_t i = c & mask;
                ring[i] = (c << 8) | 1;
                --remaining;
                links[i] = static_cast<uint16_t>(
                    remaining < mask ? remaining : mask);
                if (remaining > 0)
                    c = firstFree(c + 1);
            }
        } else {
            const uint64_t ports = ports_;
            while (remaining > 0) {
                const size_t i = c & mask;
                const uint64_t slot = ring[i];
                // A stale slot (another cycle's) counts as empty.
                const uint64_t used =
                    (slot & 0xff) &
                    (0 - static_cast<uint64_t>((slot >> 8) == c));
                const uint64_t free_here = ports - used;
                const uint64_t take =
                    free_here < remaining ? free_here : remaining;
                ring[i] = (c << 8) | (used + take);
                links[i] = 0; // read only if this claim filled the slot
                remaining -= take;
                if (remaining > 0)
                    c = firstFree(c + 1);
            }
        }
        if (c > maxSeen_)
            maxSeen_ = c;
        return start;
    }

  private:
    bool
    full(Cycle c) const
    {
        return slots_[c & mask_] == ((c << 8) | ports_);
    }

    /** Distance from full cycle @p c to the next cycle worth probing. */
    Cycle
    hop(Cycle c) const
    {
        return static_cast<Cycle>(links_[c & mask_]) + 1;
    }

    /** First cycle >= @p c with a spare slot; compresses the path. */
    Cycle
    firstFree(Cycle c)
    {
        if (!full(c))
            return c;
        Cycle end = c;
        do
            end += hop(end);
        while (full(end));
        while (c != end) {
            const Cycle next = c + hop(c);
            links_[c & mask_] = static_cast<uint16_t>(end - c - 1);
            c = next;
        }
        return end;
    }

    uint32_t ports_;
    Cycle mask_;
    /// Ring of (cycle << 8 | issue count); a slot is implicitly empty
    /// when its stored cycle is not the one being probed.
    std::vector<uint64_t> slots_;
    /// Per full slot of cycle c: a link L such that cycles c..c+L are
    /// all full, so the search for a free cycle resumes at c+L+1.
    std::unique_ptr<uint16_t[]> links_;
    Cycle maxSeen_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_ISSUE_CALENDAR_HH_

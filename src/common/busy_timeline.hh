/**
 * @file
 * BusyTimeline: a one-port resource booked in a sliding window of
 * future cycles, kept as busy intervals.
 *
 * The DRAM banks and channel buses each serve one command at a time,
 * and a command occupies a run of cycles: a row miss holds its bank
 * for tRP + tRCD, a burst holds the bus for burstCycles. Their clocks
 * jump thousands of cycles between commands, and a contended bank sits
 * behind a backlog of thousands of busy cycles. A per-cycle ring
 * (IssueCalendar) would write every one of those cycles and keep a
 * window-sized ring per bank in the host's cache; here a claim costs
 * one interval, whatever its length.
 *
 * The timeline holds sorted, disjoint, non-adjacent [begin, end) busy
 * intervals in storage of fixed capacity, allocated at construction.
 * schedule() returns exactly what IssueCalendar with one port returns
 * for the same call sequence: the first free cycle >= max(desired,
 * floor), where the floor trails maxSeen_ (the last cycle a call asked
 * for or claimed) by one window. Cycles below the floor are never
 * probed again, so an interval that ends at or below it is dropped.
 * Every live interval after the oldest then lies in the newest
 * window - 1 cycles of the window with a free cycle before it, so a
 * call starts with at most window / 2 live intervals and adds at most
 * one.
 */

#ifndef CATCHSIM_COMMON_BUSY_TIMELINE_HH_
#define CATCHSIM_COMMON_BUSY_TIMELINE_HH_

#include <cstdint>
#include <cstring>
#include <memory>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace catchsim
{

class BusyTimeline
{
  public:
    /**
     * @param window how far ahead of the newest scheduled cycle a
     *        claim can land, a power of two of at least 2
     */
    explicit BusyTimeline(uint32_t window = 16384)
        : mask_(window - 1), maxLive_(window / 2 + 2),
          // Twice the live bound: the intervals that dropped off the
          // front wait there until they outnumber the live ones.
          iv_(std::make_unique_for_overwrite<Interval[]>(2 * maxLive_))
    {
        CATCHSIM_ASSERT(isPowerOfTwo(window) && window >= 2,
                        "busy timeline window must be a power of two "
                        ">= 2: ",
                        window);
    }

    /**
     * Claims @p slots cycles: the first free cycle >= @p desired and
     * the earliest free cycles after it. Returns the first one.
     * Requests below the window floor are clamped to it.
     */
    Cycle
    schedule(Cycle desired, uint32_t slots = 1)
    {
        if (desired > maxSeen_)
            maxSeen_ = desired;
        const Cycle floor = maxSeen_ > mask_ ? maxSeen_ - mask_ : 0;
        Cycle c = desired < floor ? floor : desired;
        retire(floor);

        // k: one past the newest interval that begins at or before c.
        Interval *iv = iv_.get();
        size_t k = tail_;
        while (k > head_ && iv[k - 1].begin > c)
            --k;
        // A busy c moves to the end of its interval, which is free
        // because intervals are never adjacent.
        if (k > head_ && iv[k - 1].end > c)
            c = iv[k - 1].end;
        const Cycle start = c;
        if (slots == 0) {
            if (start > maxSeen_)
                maxSeen_ = start;
            return start;
        }

        // The claim and every interval it touches merge into one,
        // [lo, c) once the walk ends, which replaces iv[first, k).
        size_t first = k;
        Cycle lo = c;
        if (k > head_ && iv[k - 1].end == c) {
            first = k - 1;
            lo = iv[k - 1].begin;
        }
        Cycle remaining = slots;
        Cycle last = c; // the last cycle claimed
        for (;;) {
            if (k == tail_ || remaining < iv[k].begin - c) {
                c += remaining;
                last = c - 1;
                break;
            }
            // Fill the gap up to iv[k] and absorb it.
            remaining -= iv[k].begin - c;
            last = iv[k].begin - 1;
            c = iv[k].end;
            ++k;
            if (remaining == 0)
                break;
        }
        replace(first, k, Interval{lo, c});
        if (last > maxSeen_)
            maxSeen_ = last;
        return start;
    }

  private:
    struct Interval
    {
        Cycle begin;
        Cycle end;
    };

    /** Drops intervals ending at or below @p floor. */
    void
    retire(Cycle floor)
    {
        Interval *iv = iv_.get();
        while (head_ < tail_ && iv[head_].end <= floor)
            ++head_;
        // Compact once the dropped prefix is as long as the live part:
        // each move is paid for by a drop, and the touched storage
        // stays within about twice the most intervals ever live.
        const size_t live = tail_ - head_;
        if (head_ > 0 && head_ >= live) {
            std::memmove(iv, iv + head_, live * sizeof(Interval));
            head_ = 0;
            tail_ = live;
        }
    }

    /** Replaces iv_[first, k) (possibly empty) with @p merged. */
    void
    replace(size_t first, size_t k, Interval merged)
    {
        Interval *iv = iv_.get();
        if (first == k) {
            // retire() keeps head_ < live or head_ == 0, so below the
            // live bound tail_ stays inside the storage.
            CATCHSIM_ASSERT(tail_ - head_ < maxLive_,
                            "busy timeline over its live bound: ",
                            tail_ - head_);
            std::memmove(iv + first + 1, iv + first,
                         (tail_ - first) * sizeof(Interval));
            ++tail_;
        } else {
            std::memmove(iv + first + 1, iv + k,
                         (tail_ - k) * sizeof(Interval));
            tail_ -= k - first - 1;
        }
        iv[first] = merged;
    }

    Cycle mask_;
    size_t maxLive_;
    /// Live intervals are iv_[head_, tail_), oldest first.
    std::unique_ptr<Interval[]> iv_;
    size_t head_ = 0;
    size_t tail_ = 0;
    Cycle maxSeen_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_BUSY_TIMELINE_HH_

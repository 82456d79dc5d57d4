/**
 * @file
 * FastForward: the functional-warming engine of sampled simulation.
 *
 * Consumes the same TraceView the detailed core does, but updates
 * *state only*: cache tags/replacement/dirty bits through the
 * hierarchy's warmAccess (which reuses the real fill/eviction/inclusion
 * logic), branch-predictor tables through warmTrain, and the TACT
 * learning structures through the regular event hooks with the
 * coordinator in warming mode (learning without prefetch issue). There
 * is no ROB, no issue calendars and no DRAM timing, so a warm step is
 * an order of magnitude cheaper than a detailed one — the speed lever
 * behind SampleMode::Sampled.
 *
 * The engine never touches any stats: counters the detailed windows
 * report stay exactly as the windows left them.
 */

#ifndef CATCHSIM_SIM_FAST_FORWARD_HH_
#define CATCHSIM_SIM_FAST_FORWARD_HH_

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "core/branch_predictor.hh"
#include "tact/tact.hh"
#include "trace/trace_stream.hh"
#include "trace/trace_view.hh"
#include "trace/workload.hh"

namespace catchsim
{

class FastForward
{
  public:
    /** @param tact may be nullptr (baseline configs) */
    FastForward(CoreId core, CacheHierarchy &hierarchy,
                BranchPredictor &predictor, Tact *tact);

    /** Attaches a fully materialized trace. */
    void bind(const Trace &trace);

    /** Attaches a streaming trace (shared with the detailed core). */
    void bind(TraceStream &stream);

    /**
     * Warms the ops in [pos, pos + count), clamped to the trace end,
     * with the hierarchy clock pinned at @p now (warming consumes no
     * simulated time). @returns the first unwarmed position, which the
     * caller hands back to the core via OooCore::skipTo.
     *
     * Warming is associative over contiguous ranges: warm(p, a) then
     * warm(p + a, b) derives bitwise the state of warm(p, a + b),
     * because all warmed state (including the repeat filter) persists
     * across calls and the pinned clock removes any time dependence.
     * The simulator leans on both properties — it merges each period's
     * trailing slack with the next period's leading offset into one
     * contiguous gap, and the clamp makes a trailing gap at the trace
     * end a no-op rather than an error.
     */
    size_t warm(size_t pos, uint64_t count, Cycle now);

    /**
     * Serializes the repeat-filter state (last code line, the two-entry
     * data filter and its dirty bits). The filter gates stride-
     * prefetcher training, so a restored run must resume with exactly
     * the filter a fresh warm would have left behind.
     */
    void saveWarmState(StateSink &sink) const;

    /** Restores a saveWarmState() stream; false on a malformed one. */
    bool loadWarmState(StateSource &src);

  private:
    /** The warmed-state section's layout, for save (Self const) and
     *  load alike; see common/state_io.hh. */
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    CoreId core_;
    CacheHierarchy &hierarchy_;
    BranchPredictor &predictor_;
    Tact *tact_;

    TraceView trace_;
    TraceStream *stream_ = nullptr;
    size_t refillAt_ = ~size_t(0);
    Addr lastCodeLine_ = ~0ULL;

    /**
     * Two-entry repeat filter over data lines. A re-touch of the line
     * the previous data access just left MRU cannot change LRU order,
     * so the hierarchy walk is skipped; the second entry is honoured
     * only when it provably maps to a different L1 set (conservative
     * mod-16 proxy, exact for any L1 with >= 16 sets). dirty0_/dirty1_
     * track whether the filtered line is known dirty — a repeat store
     * on a clean line still takes the full path to set the dirty bit.
     *
     * Two documented approximations ride on the filter: the stride
     * prefetcher does not observe the skipped repeats (detailed mode
     * trains on every load), and a filtered line back-invalidated by an
     * inclusive-LLC eviction between touches is not re-filled. Both are
     * bounded by the sampling accuracy gate in tests/sampling_test.cc.
     */
    Addr lastData0_ = ~0ULL;
    Addr lastData1_ = ~0ULL;
    bool dirty0_ = false;
    bool dirty1_ = false;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_FAST_FORWARD_HH_

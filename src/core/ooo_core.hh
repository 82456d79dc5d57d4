/**
 * @file
 * Out-of-order core timing model.
 *
 * A forward, per-instruction evaluation of the Fields et al. dependence
 * graph under real machine constraints: 4-wide in-order allocation into
 * a 224-entry ROB, register dataflow through a scoreboard, memory
 * dependences through a store queue with forwarding, execution-port
 * contention, cache/memory latencies from the hierarchy, branch
 * mispredict redirects, in-order 4-wide retirement, and a decoupled
 * front end that stalls on L1I misses. Each instruction receives its
 * D (alloc), E (dispatch/writeback) and C (retire) event times, which
 * also feed the criticality-detection hardware.
 */

#ifndef CATCHSIM_CORE_OOO_CORE_HH_
#define CATCHSIM_CORE_OOO_CORE_HH_

#include <vector>

#include "cache/hierarchy.hh"
#include "common/sim_config.hh"
#include "common/types.hh"
#include "core/frontend.hh"
#include "common/issue_calendar.hh"
#include "criticality/ddg.hh"
#include "tact/tact.hh"
#include "trace/trace_view.hh"
#include "trace/workload.hh"

namespace catchsim
{

class TraceStream;

/** Per-core run statistics. */
struct CoreStats
{
    uint64_t instrs = 0;
    uint64_t cycles = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t forwardedLoads = 0;
    BranchStats branch;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instrs) / cycles : 0.0;
    }
};

class OooCore
{
  public:
    /**
     * @param detector criticality hardware, may be nullptr
     * @param tact TACT prefetchers, may be nullptr
     */
    OooCore(const SimConfig &cfg, CoreId core, CacheHierarchy &hierarchy,
            CriticalityDetector *detector, Tact *tact);

    /** Attaches a fully materialized trace; resets the trace cursor. */
    void bind(const Trace &trace);

    /**
     * Attaches a streaming trace; resets the trace cursor. The stream
     * must outlive the core binding and is advanced by step() as the
     * cursor approaches the edge of the resident window.
     */
    void bind(TraceStream &stream);

    /** Processes one instruction; false when the trace is exhausted. */
    bool step();

    /** Restarts the trace from the beginning, keeping warm structures
     *  (no caller yet: MP cores that finish early just stop). */
    void rewind();

    bool done() const { return pos_ >= trace_.count; }

    /** Current trace cursor (shared with the functional-warming engine). */
    size_t tracePos() const { return pos_; }

    /**
     * Adopts a cursor the functional-warming engine advanced: the
     * instructions in [tracePos(), pos) were processed state-only, so
     * they count as done but core time does not move. Stale pipeline
     * timing is re-established by the per-window detailed warmup.
     */
    void skipTo(size_t pos);

    /** The core's notion of time: the last retirement. */
    Cycle now() const { return lastRetireCycle_; }

    /** Instructions processed so far (monotonic across rewinds). */
    uint64_t instrsDone() const { return instrsDone_; }

    /** Snapshot used for warmup-boundary accounting. */
    void markMeasurementStart();

    CoreStats stats() const;

    Frontend &frontend() { return frontend_; }

  private:
    Cycle allocSlot(Cycle lower_bound);
    Cycle retireSlot(Cycle lower_bound);
    IssueCalendar &portsFor(OpClass cls);

    SimConfig cfg_;
    CoreId core_;
    CacheHierarchy &hierarchy_;
    CriticalityDetector *detector_;
    Tact *tact_;
    Frontend frontend_;

    TraceView trace_;
    TraceStream *stream_ = nullptr;
    /** Cached stream_->refillAt(); ~0 for materialized traces, so the
     *  hot path is one predictable compare. */
    size_t streamRefillAt_ = ~size_t(0);
    size_t pos_ = 0;
    SeqNum seq_ = 0;
    uint64_t instrsDone_ = 0;

    // Register scoreboard.
    std::vector<Cycle> regReady_;
    std::vector<SeqNum> regProducer_;

    // ROB occupancy: retire time of each of the last robSize instrs.
    std::vector<Cycle> robRetire_;
    /** pos_ % robSize, kept by wrapping instead of dividing per op. */
    uint32_t robSlot_ = 0;

    // Allocation / retirement pacing.
    Cycle curAllocCycle_ = 0;
    uint32_t allocsInCycle_ = 0;
    Cycle lastRetireCycle_ = 0;
    uint32_t retiresInCycle_ = 0;

    // Execution-port bandwidth per class.
    IssueCalendar aluPorts_;
    IssueCalendar loadPorts_;
    IssueCalendar storePorts_;
    IssueCalendar fpPorts_;

    // Store queue for forwarding: most recent stores by 8-byte word.
    // storeNum is the 1-based global store count at insertion; an entry
    // forwards only while it is among the last storeQueueSize stores
    // (storeNum + SQ > storeCount_), which is exactly when its ring slot
    // in storeQueue_ has not yet been overwritten.
    struct StoreEntry
    {
        Addr word = 0;
        Cycle ready = 0;
        SeqNum seq = 0;
        uint64_t storeNum = 0;
    };
    std::vector<StoreEntry> storeQueue_;
    size_t storeHead_ = 0;
    uint64_t storeCount_ = 0;
    /** Stores until the next forwarding-table rebuild: SQ minus
     *  storeCount_ % SQ, counted down instead of divided per store. */
    size_t storesToRebuild_;

    // Word-indexed forwarding map over the store queue: open-addressing
    // table holding, per 8-byte word, the youngest store to that word.
    // Replaces the O(SQ) per-load ring scan with an O(1) probe; stale
    // (aged-out) entries are filtered by the storeNum liveness check and
    // purged wholesale by a rebuild from the ring every SQ stores.
    std::vector<StoreEntry> fwdTable_;
    size_t fwdMask_ = 0;
    uint32_t fwdShift_ = 0;

    const StoreEntry *findForward(Addr word) const;
    void insertForward(const StoreEntry &se);
    void rebuildForwardTable();

    // Counters.
    uint64_t loads_ = 0;
    uint64_t stores_ = 0;
    uint64_t forwardedLoads_ = 0;

    // Measurement window.
    uint64_t measStartInstrs_ = 0;
    Cycle measStartCycle_ = 0;
    uint64_t measStartLoads_ = 0;
    uint64_t measStartStores_ = 0;
    uint64_t measStartFwd_ = 0;
};

} // namespace catchsim

#endif // CATCHSIM_CORE_OOO_CORE_HH_

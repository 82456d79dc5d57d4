#include "core/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{

OooCore::OooCore(const SimConfig &cfg, CoreId core,
                 CacheHierarchy &hierarchy,
                 CriticalityDetector *detector, Tact *tact)
    : cfg_(cfg), core_(core), hierarchy_(hierarchy), detector_(detector),
      tact_(tact), frontend_(cfg, core, hierarchy, tact),
      regReady_(cfg.numArchRegs, 0), regProducer_(cfg.numArchRegs, 0),
      robRetire_(cfg.robSize, 0), aluPorts_(cfg.aluPorts),
      loadPorts_(cfg.loadPorts), storePorts_(cfg.storePorts),
      fpPorts_(cfg.fpPorts), storeQueue_(cfg.storeQueueSize),
      storesToRebuild_(cfg.storeQueueSize)
{
    // Forwarding table sized at 8x the store queue: at most 2xSQ slots
    // are ever occupied between rebuilds, so probe chains stay short.
    size_t cap = 1;
    uint32_t log2cap = 0;
    while (cap < 8 * cfg.storeQueueSize) {
        cap <<= 1;
        ++log2cap;
    }
    fwdTable_.resize(cap);
    fwdMask_ = cap - 1;
    fwdShift_ = 64 - log2cap;
}

void
OooCore::bind(const Trace &trace)
{
    trace_ = makeView(trace.ops);
    stream_ = nullptr;
    streamRefillAt_ = ~size_t(0);
    pos_ = 0;
    robSlot_ = 0;
    frontend_.bindTrace(trace_);
}

void
OooCore::bind(TraceStream &stream)
{
    CATCHSIM_ASSERT(stream.chunkOps() >= kCodeRunaheadHorizonOps,
                    "stream chunk too small for the code-runahead walk");
    trace_ = stream.view();
    stream_ = &stream;
    streamRefillAt_ = stream.refillAt();
    pos_ = 0;
    robSlot_ = 0;
    frontend_.bindTrace(trace_);
}

void
OooCore::rewind()
{
    CATCHSIM_ASSERT(trace_.bound(), "rewind without a bound trace");
    pos_ = 0;
    robSlot_ = 0;
    if (stream_) {
        stream_->rewind();
        streamRefillAt_ = stream_->refillAt();
    }
    // Keep all timing state: the machine simply re-executes the loop.
    frontend_.bindTrace(trace_);
}

void
OooCore::skipTo(size_t pos)
{
    CATCHSIM_ASSERT(pos >= pos_ && pos <= trace_.count,
                    "skipTo outside the remaining trace");
    uint64_t skipped = pos - pos_;
    pos_ = pos;
    robSlot_ = static_cast<uint32_t>(pos % cfg_.robSize);
    seq_ += skipped;
    instrsDone_ += skipped;
    if (stream_)
        streamRefillAt_ = stream_->refillAt();
}

Cycle
OooCore::allocSlot(Cycle lower_bound)
{
    if (lower_bound > curAllocCycle_) {
        curAllocCycle_ = lower_bound;
        allocsInCycle_ = 1;
    } else if (++allocsInCycle_ > cfg_.width) {
        ++curAllocCycle_;
        allocsInCycle_ = 1;
    }
    return curAllocCycle_;
}

Cycle
OooCore::retireSlot(Cycle lower_bound)
{
    if (lower_bound > lastRetireCycle_) {
        lastRetireCycle_ = lower_bound;
        retiresInCycle_ = 1;
    } else if (++retiresInCycle_ > cfg_.width) {
        ++lastRetireCycle_;
        retiresInCycle_ = 1;
    }
    return lastRetireCycle_;
}

IssueCalendar &
OooCore::portsFor(OpClass cls)
{
    switch (cls) {
      case OpClass::Load: return loadPorts_;
      case OpClass::Store: return storePorts_;
      case OpClass::FpAdd:
      case OpClass::FpMul:
      case OpClass::FpDiv: return fpPorts_;
      default: return aluPorts_;
    }
}

const OooCore::StoreEntry *
OooCore::findForward(Addr word) const
{
    // At most one entry per word exists in any probe chain (inserts
    // overwrite on word match), so the first match decides.
    size_t i = (word * 0x9E3779B97F4A7C15ULL) >> fwdShift_;
    for (;; i = (i + 1) & fwdMask_) {
        const StoreEntry &e = fwdTable_[i];
        if (e.storeNum == 0)
            return nullptr;
        if (e.word == word) {
            bool live = e.storeNum + storeQueue_.size() > storeCount_;
            return live ? &e : nullptr;
        }
    }
}

void
OooCore::insertForward(const StoreEntry &se)
{
    size_t i = (se.word * 0x9E3779B97F4A7C15ULL) >> fwdShift_;
    for (;; i = (i + 1) & fwdMask_) {
        StoreEntry &e = fwdTable_[i];
        if (e.storeNum == 0) {
            e = se;
            return;
        }
        if (e.word == se.word) {
            // Youngest store to a word wins, exactly as the ring scan's
            // max-seq tie-break did.
            if (se.storeNum > e.storeNum)
                e = se;
            return;
        }
    }
}

void
OooCore::rebuildForwardTable()
{
    // Drop aged-out entries so the table never fills up: everything
    // still forwardable is, by definition, in the store-queue ring.
    std::fill(fwdTable_.begin(), fwdTable_.end(), StoreEntry());
    for (const auto &se : storeQueue_)
        if (se.storeNum != 0)
            insertForward(se);
}

bool
OooCore::step()
{
    if (done())
        return false;
    if (pos_ >= streamRefillAt_) {
        stream_->ensure(pos_);
        streamRefillAt_ = stream_->refillAt();
    }
    const MicroOp &op = trace_.at(pos_);
    ++seq_;

    // ---- Front end (D-node inputs) ----
    Cycle fetch = frontend_.fetchCycle(pos_, op);
    Cycle rob_ready = robRetire_[robSlot_];
    Cycle alloc = allocSlot(std::max(fetch, rob_ready));

    // ---- Source operands (E-E edges) ----
    Cycle src_ready = 0;
    SeqNum src_seq[kMaxSrcs] = {0, 0, 0};
    for (uint32_t i = 0; i < kMaxSrcs; ++i) {
        int8_t s = op.src[i];
        if (s < 0)
            continue;
        src_ready = std::max(src_ready, regReady_[s]);
        src_seq[i] = regProducer_[s];
    }
    Cycle min_dispatch =
        std::max(alloc + cfg_.renameLat, src_ready);

    // ---- Execute ----
    Cycle exec_start = 0;
    Cycle exec_done = 0;
    Level served = Level::None;
    bool tact_covered = false;
    bool mispredicted = false;
    SeqNum mem_dep = 0;

    switch (op.cls) {
      case OpClass::Load: {
        ++loads_;
        exec_start = loadPorts_.schedule(min_dispatch);
        // Store-to-load forwarding: youngest older store to the word.
        const StoreEntry *fwd = findForward(op.memAddr >> 3);
        if (fwd) {
            ++forwardedLoads_;
            mem_dep = fwd->seq;
            exec_done = std::max(exec_start, fwd->ready) + cfg_.fwdLatency;
        } else {
            MemResult r = hierarchy_.load(core_, op.pc, op.memAddr,
                                          exec_start);
            served = r.served;
            tact_covered = r.tactCovered;
            exec_done = exec_start + r.latency;
        }
        if (tact_) {
            tact_->onLoadDispatch(op, exec_start);
            tact_->onLoadComplete(op, exec_done);
        }
        break;
      }
      case OpClass::Store: {
        ++stores_;
        exec_start = storePorts_.schedule(min_dispatch);
        exec_done = exec_start + 1;
        StoreEntry &slot = storeQueue_[storeHead_];
        if (++storeHead_ == storeQueue_.size())
            storeHead_ = 0;
        slot.word = op.memAddr >> 3;
        slot.ready = exec_done;
        slot.seq = seq_;
        slot.storeNum = ++storeCount_;
        insertForward(slot);
        // Every SQ stores, i.e. whenever storeCount_ % SQ == 0.
        if (--storesToRebuild_ == 0) {
            storesToRebuild_ = storeQueue_.size();
            rebuildForwardTable();
        }
        break;
      }
      case OpClass::Branch: {
        exec_start = aluPorts_.schedule(min_dispatch);
        exec_done = exec_start + opLatency(op.cls);
        mispredicted = frontend_.predictor().predictAndTrain(op);
        if (mispredicted)
            frontend_.redirect(exec_done + cfg_.redirectLat);
        break;
      }
      default: {
        uint32_t busy =
            (op.cls == OpClass::Div || op.cls == OpClass::FpDiv) ? 8 : 1;
        exec_start = portsFor(op.cls).schedule(min_dispatch, busy);
        exec_done = exec_start + opLatency(op.cls);
        break;
      }
    }

    // ---- Writeback / scoreboard ----
    if (op.dst >= 0) {
        regReady_[op.dst] = exec_done;
        regProducer_[op.dst] = seq_;
    }

    // ---- Retire (C node) ----
    Cycle retire = retireSlot(exec_done + 1);
    robRetire_[robSlot_] = retire;
    if (++robSlot_ == cfg_.robSize)
        robSlot_ = 0;

    if (op.isStore())
        hierarchy_.storeCommit(core_, op.memAddr, retire);

    if (detector_) {
        RetireInfo ri;
        ri.pc = op.pc;
        ri.seq = seq_;
        ri.cls = op.cls;
        ri.mispredictedBranch = mispredicted;
        ri.servedBy = served;
        ri.tactCovered = tact_covered;
        ri.allocCycle = alloc;
        ri.execStart = exec_start;
        ri.execDone = exec_done;
        ri.retireCycle = retire;
        for (uint32_t i = 0; i < kMaxSrcs; ++i)
            ri.srcSeq[i] = src_seq[i];
        ri.memDepSeq = mem_dep;
        detector_->onRetire(ri);
    }
    if (tact_)
        tact_->onRetire(op);

    ++pos_;
    ++instrsDone_;
    return true;
}

void
OooCore::markMeasurementStart()
{
    measStartInstrs_ = instrsDone_;
    measStartCycle_ = lastRetireCycle_;
    measStartLoads_ = loads_;
    measStartStores_ = stores_;
    measStartFwd_ = forwardedLoads_;
    frontend_.resetStats();
}

CoreStats
OooCore::stats() const
{
    CoreStats s;
    s.instrs = instrsDone_ - measStartInstrs_;
    s.cycles = lastRetireCycle_ - measStartCycle_;
    s.loads = loads_ - measStartLoads_;
    s.stores = stores_ - measStartStores_;
    s.forwardedLoads = forwardedLoads_ - measStartFwd_;
    s.branch = frontend_.predictor().stats();
    return s;
}

} // namespace catchsim

#include "sim/fast_forward.hh"

#include <utility>

namespace catchsim
{

FastForward::FastForward(CoreId core, CacheHierarchy &hierarchy,
                         BranchPredictor &predictor, Tact *tact)
    : core_(core), hierarchy_(hierarchy), predictor_(predictor),
      tact_(tact)
{
}

void
FastForward::bind(const Trace &trace)
{
    trace_ = makeView(trace.ops);
    stream_ = nullptr;
    refillAt_ = ~size_t(0);
    lastCodeLine_ = ~0ULL;
    lastData0_ = lastData1_ = ~0ULL;
    dirty0_ = dirty1_ = false;
}

void
FastForward::bind(TraceStream &stream)
{
    trace_ = stream.view();
    stream_ = &stream;
    refillAt_ = stream.refillAt();
    lastCodeLine_ = ~0ULL;
    lastData0_ = lastData1_ = ~0ULL;
    dirty0_ = dirty1_ = false;
}

size_t
FastForward::warm(size_t pos, uint64_t count, Cycle now)
{
    size_t end = trace_.count - pos < count ? trace_.count
                                            : pos + static_cast<size_t>(count);
    if (tact_)
        tact_->setWarming(true);
    while (pos < end) {
        if (pos >= refillAt_) {
            stream_->ensure(pos);
            refillAt_ = stream_->refillAt();
        }
        const MicroOp &op = trace_.at(pos);

        // Code side, line-granular like Frontend::fetchCycle.
        Addr line = lineAddr(op.pc);
        if (line != lastCodeLine_) {
            hierarchy_.warmAccess(core_, op.pc, op.pc, now,
                                  CacheHierarchy::WarmKind::Code);
            lastCodeLine_ = line;
        }

        switch (op.cls) {
          case OpClass::Load: {
            Addr dline = lineAddr(op.memAddr);
            if (dline == lastData0_) {
                // MRU re-touch: LRU order cannot change, skip the walk.
            } else if (dline == lastData1_ &&
                       (((dline ^ lastData0_) >> kLineShift) & 15) != 0) {
                std::swap(lastData0_, lastData1_);
                std::swap(dirty0_, dirty1_);
            } else {
                hierarchy_.warmAccess(core_, op.pc, op.memAddr, now,
                                      CacheHierarchy::WarmKind::Load);
                lastData1_ = lastData0_;
                dirty1_ = dirty0_;
                lastData0_ = dline;
                dirty0_ = false;
            }
            if (tact_) {
                // Dispatch and completion collapse to the same instant:
                // warming has no timing, only the learning matters.
                tact_->onLoadDispatch(op, now);
                tact_->onLoadComplete(op, now);
            }
            break;
          }
          case OpClass::Store: {
            Addr dline = lineAddr(op.memAddr);
            if (dline == lastData0_ && dirty0_) {
                // already dirty and MRU: nothing left to record
            } else if (dline == lastData1_ && dirty1_ &&
                       (((dline ^ lastData0_) >> kLineShift) & 15) != 0) {
                std::swap(lastData0_, lastData1_);
                std::swap(dirty0_, dirty1_);
            } else {
                hierarchy_.warmAccess(core_, op.pc, op.memAddr, now,
                                      CacheHierarchy::WarmKind::Store);
                if (dline != lastData0_) {
                    lastData1_ = lastData0_;
                    dirty1_ = dirty0_;
                    lastData0_ = dline;
                }
                dirty0_ = true;
            }
            break;
          }
          case OpClass::Branch:
            predictor_.warmTrain(op);
            break;
          default:
            break;
        }

        if (tact_)
            tact_->onRetire(op);
        ++pos;
    }
    if (tact_)
        tact_->setWarming(false);
    return pos;
}

template <typename IO, typename Self>
void
FastForward::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("FFWD"));
    io.u64(s.lastCodeLine_);
    io.u64(s.lastData0_);
    io.u64(s.lastData1_);
    io.boolean(s.dirty0_);
    io.boolean(s.dirty1_);
}

void
FastForward::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
FastForward::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim

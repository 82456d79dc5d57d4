#include "trace/emitter.hh"

#include <algorithm>

namespace catchsim
{

Emitter::Emitter(FunctionalMemory &mem, std::vector<MicroOp> &spill,
                 size_t limit)
    : mem_(mem), spill_(spill), limit_(limit)
{
    CATCHSIM_ASSERT(spill_.empty(), "an emitter starts with an empty spill");
}

void
Emitter::spill(const MicroOp &op)
{
    if (done()) {
        // Kernels keep computing past the budget until their outer loop
        // notices; silently drop the surplus ops.
        return;
    }
    spill_.push_back(op);
    ++emitted_;
}

void
Emitter::openWindow(MicroOp *dst, size_t n)
{
    CATCHSIM_ASSERT(n <= limit_ - windowed_, "window of ", n,
                    " ops past the ", limit_, "-op budget");
    windowed_ += n;
    const size_t take = std::min(n, spill_.size() - spillHead_);
    std::copy_n(spill_.begin() + static_cast<ptrdiff_t>(spillHead_), take,
                dst);
    spillHead_ += take;
    if (spillHead_ == spill_.size()) {
        // Drained: new overshoot starts the buffer again. (A window
        // filled from the spill alone leaves the rest queued; no run()
        // happens before the next window drains it.)
        spill_.clear();
        spillHead_ = 0;
    }
    cur_ = dst + take;
    end_ = dst + n;
}

} // namespace catchsim

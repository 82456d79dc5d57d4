/**
 * @file
 * Emitter: the interface workload kernels use to produce traces.
 *
 * Kernels execute their algorithm functionally (reads/writes go to a
 * FunctionalMemory) while the emitter records a dynamic instruction
 * stream with stable PCs, realistic register dataflow and real data
 * values. Stable PCs matter: every PC-indexed structure in the paper
 * (stride prefetcher, critical-load table, TACT learners) depends on the
 * same static load reappearing across loop iterations, so kernels reset
 * the PC to the loop head on every iteration via setPc()/loopHead().
 *
 * The op-recording calls are inline: with FunctionalMemory's inline
 * read/write they are the whole per-op cost of trace generation.
 */

#ifndef CATCHSIM_TRACE_EMITTER_HH_
#define CATCHSIM_TRACE_EMITTER_HH_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "mem/functional_memory.hh"
#include "trace/micro_op.hh"

namespace catchsim
{

/**
 * Records MicroOps until a target length is reached.
 *
 * Ops go straight into the consumer's destination window when one is
 * open (openWindow(): a trace stream's ring half, a chunk, a whole
 * materialized trace). Kernels emit one outer loop per run() call and
 * so overshoot a window's end; the overshoot goes to the spill vector,
 * and the next window starts by draining it. An emitter whose owner
 * never opens a window simply appends every op to the spill vector.
 * Progress accounting (done(), remaining(), emitted()) counts every op
 * emitted, wherever it went.
 */
class Emitter
{
  public:
    /**
     * @param mem functional memory the kernel computes against
     * @param spill receives every op emitted while no window has room;
     *        must be empty, and owned by the caller for the emitter's
     *        life
     * @param limit number of micro-ops to record
     */
    Emitter(FunctionalMemory &mem, std::vector<MicroOp> &spill,
            size_t limit);

    // Holds pointers into the owner's buffers; never moves.
    Emitter(const Emitter &) = delete;
    Emitter &operator=(const Emitter &) = delete;

    /** True once the requested number of ops has been emitted. */
    bool done() const { return emitted_ >= limit_; }

    /** Remaining op budget. */
    size_t remaining() const
    {
        return done() ? 0 : limit_ - emitted_;
    }

    FunctionalMemory &mem() { return mem_; }

    /** Moves the PC to @p pc without emitting anything (a label). */
    void setPc(Addr pc) { pc_ = pc; }

    Addr pc() const { return pc_; }

    /** Emits an arithmetic op writing @p dst from @p srcs. */
    void
    alu(int dst, std::initializer_list<int> srcs,
        OpClass cls = OpClass::Alu)
    {
        MicroOp op = make(cls, srcs);
        op.dst = static_cast<int8_t>(dst);
        push(op);
        pc_ += 4;
    }

    /**
     * Emits a load of the 64-bit word at @p addr into @p dst.
     * @param srcs the registers that functionally produced the address
     * @returns the loaded value (from functional memory)
     */
    uint64_t
    load(int dst, std::initializer_list<int> srcs, Addr addr)
    {
        const uint64_t value = mem_.read(addr);
        MicroOp op = make(OpClass::Load, srcs);
        op.dst = static_cast<int8_t>(dst);
        op.memAddr = addr;
        op.value = value;
        push(op);
        pc_ += 4;
        return value;
    }

    /** Emits a store of @p value to @p addr; srcs = address + data regs. */
    void
    store(std::initializer_list<int> srcs, Addr addr, uint64_t value)
    {
        mem_.write(addr, value);
        MicroOp op = make(OpClass::Store, srcs);
        op.memAddr = addr;
        op.value = value;
        push(op);
        pc_ += 4;
    }

    /**
     * Emits a conditional branch. When taken the PC moves to @p target,
     * otherwise it falls through to pc+4.
     * @param srcs registers the branch condition depends on
     */
    void
    branch(bool taken, Addr target, std::initializer_list<int> srcs = {})
    {
        MicroOp op = make(OpClass::Branch, srcs);
        op.taken = taken;
        op.target = target;
        push(op);
        pc_ = taken ? target : pc_ + 4;
    }

    /** Emits an unconditional jump to @p target (always predictable). */
    void jump(Addr target) { branch(true, target); }

    /** Emits @p n independent single-cycle filler ops. */
    void
    nops(int n)
    {
        for (int i = 0; i < n; ++i)
            alu(-1, {});
    }

    /** Total ops emitted so far (monotonic; survives window changes). */
    size_t emitted() const { return emitted_; }

    /**
     * Directs the stream's next @p n ops to dst[0, n): first what the
     * spill holds, then newly emitted ops. The window is full once
     * windowFull(); ops emitted after that spill again. At most
     * limit ops pass through windows in total.
     */
    void openWindow(MicroOp *dst, size_t n);

    /** True once the open window (if any) holds all its ops. */
    bool windowFull() const { return cur_ == end_; }

  private:
    MicroOp
    make(OpClass cls, std::initializer_list<int> srcs) const
    {
        MicroOp op;
        op.pc = pc_;
        op.cls = cls;
        CATCHSIM_ASSERT(srcs.size() <= kMaxSrcs, "too many sources");
        int8_t *s = op.src;
        for (int r : srcs)
            *s++ = static_cast<int8_t>(r);
        return op;
    }

    void
    push(const MicroOp &op)
    {
        // An open window's slots are all inside the op budget: windows
        // never cover more than limit ops, and the spill drains first.
        if (cur_ != end_) {
            *cur_++ = op;
            ++emitted_;
        } else {
            spill(op);
        }
    }

    /** Appends @p op to the spill, or drops it past the budget. */
    void spill(const MicroOp &op);

    FunctionalMemory &mem_;
    std::vector<MicroOp> &spill_;
    size_t spillHead_ = 0; ///< spill_[0, spillHead_) already windowed
    MicroOp *cur_ = nullptr; ///< next slot of the open window
    MicroOp *end_ = nullptr; ///< end of the open window
    size_t limit_;
    size_t windowed_ = 0; ///< ops handed to windows so far
    size_t emitted_ = 0;
    Addr pc_ = 0x400000;
};

} // namespace catchsim

#endif // CATCHSIM_TRACE_EMITTER_HH_

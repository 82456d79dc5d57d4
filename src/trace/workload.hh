/**
 * @file
 * Workload and trace abstractions.
 *
 * A Workload is a seeded generator of instruction traces. The synthetic
 * kernels in trace/kernels stand in for the paper's SPEC CPU 2006 / HPC /
 * server / client applications; each is engineered to reproduce the
 * cache-hierarchy behaviour the paper reports for its category (see
 * DESIGN.md section 2 for the substitution argument).
 */

#ifndef CATCHSIM_TRACE_WORKLOAD_HH_
#define CATCHSIM_TRACE_WORKLOAD_HH_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/functional_memory.hh"
#include "trace/emitter.hh"
#include "trace/micro_op.hh"

namespace catchsim
{

/** Workload categories used for per-category reporting, as in the paper. */
enum class Category : uint8_t
{
    Client,
    Fspec,
    Hpc,
    Ispec,
    Server,
};

const char *categoryName(Category c);

/** A generated trace plus the functional memory it computed against. */
struct Trace
{
    std::vector<MicroOp> ops;
    /**
     * Final memory image. TACT-Feeder reads prefetched lines from here to
     * obtain the value a hardware fill would return (kernels write their
     * pointer structures during setup and do not re-link them afterwards,
     * so the image is stable for the addresses feeder chases).
     */
    std::shared_ptr<FunctionalMemory> mem;
};

/** Base class for all workloads. */
class Workload
{
  public:
    Workload(std::string name, Category category, uint64_t seed)
        : name_(std::move(name)), category_(category), seed_(seed)
    {
    }

    virtual ~Workload() = default;

    const std::string &name() const { return name_; }
    Category category() const { return category_; }
    uint64_t seed() const { return seed_; }

    /** Generates a trace of exactly @p n micro-ops. */
    Trace generate(size_t n);

    /**
     * Brings the workload to op 0 of its trace: replaces @p mem's
     * contents with the post-setup memory, resets the cursors
     * (restart()) and returns the post-setup generator. The one place
     * setup() runs. A registry workload (imageKey() set) adopts its
     * shared image from KernelImageStore::global(), building it on the
     * first start in the process; any other workload runs setup()
     * into @p mem. Either way the result is bitwise the same.
     */
    Rng start(FunctionalMemory &mem);

    /** Suite registry name whose shared post-setup image start()
     *  adopts; empty for workloads constructed directly. */
    const std::string &imageKey() const { return imageKey_; }

    /** Set by findWorkload. The key must name this exact kernel and
     *  parameter set; an empty key makes start() run setup(). */
    void setImageKey(std::string key) { imageKey_ = std::move(key); }

  protected:
    /**
     * Builds the workload's data structures in functional memory,
     * which starts empty, drawing from @p rng (seeded with seed()).
     * The memory and @p rng afterwards must be a pure function of the
     * constructor arguments: start() may run it once per process and
     * hand its result to every later start of an equal workload. It
     * must not touch generation cursors; restart() owns them.
     */
    virtual void setup(FunctionalMemory &mem, Rng &rng) = 0;

    /**
     * Resets every generation cursor run() advances (positions, row
     * and column counters, allocation pointers) to the value it had
     * before the first run(), so a workload object can generate (or
     * stream) the same trace repeatedly. Reads and writes no memory and
     * draws nothing from the Rng. Kernels without cursors keep the
     * default.
     */
    virtual void restart() {}

    /**
     * Emits one outer chunk of the algorithm; called repeatedly until the
     * op budget is exhausted. Implementations must make forward progress
     * (emit at least one op) per call.
     */
    virtual void run(Emitter &em, Rng &rng) = 0;

  private:
    /**
     * The one emission loop, shared by generate(), TraceStream and
     * ChunkGenerator: fills dst[0, n) with the next @p n ops of the
     * stream @p em records (its spill first), running the kernel until
     * the window is full. The kernel writes the functional memory as it
     * emits, so memory tracks generation exactly as under generate().
     */
    void emitInto(Emitter &em, Rng &rng, MicroOp *dst, size_t n);

    /** Drives start()/emitInto() incrementally instead of via
     *  generate(). */
    friend class TraceStream;
    /** Same incremental drive, for the memoized chunk pipeline. */
    friend class ChunkGenerator;

    std::string name_;
    Category category_;
    uint64_t seed_;
    std::string imageKey_;
};

/** Convenient architectural register names for kernel code. */
enum Reg : int
{
    r0 = 0, r1, r2, r3, r4, r5, r6, r7,
    r8, r9, r10, r11, r12, r13, r14, r15,
};

/** Base of the code segment used by kernels. */
constexpr Addr kCodeBase = 0x00400000;

/** Base of the data segment used by kernels. */
constexpr Addr kHeapBase = 0x10000000;

/**
 * Address of code block @p i. Blocks are 0x440 bytes apart: enough for
 * every kernel's intra-block offsets, packed like compiler-laid-out
 * functions, and 17 lines is coprime with any power-of-two set count so
 * consecutive blocks cover all L1I sets (page-aligned blocks would
 * alias a handful of sets and melt the instruction cache).
 */
constexpr Addr
codeBlock(unsigned i)
{
    return kCodeBase + static_cast<Addr>(i) * 0x440;
}

} // namespace catchsim

#endif // CATCHSIM_TRACE_WORKLOAD_HH_

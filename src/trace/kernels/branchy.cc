/**
 * @file
 * Control-flow-dominated kernels: BranchyLike, InterpreterLike,
 * CompressLike, MixedIntLike, GridNeighborLike.
 */

#include "trace/kernels/kernels.hh"

#include "common/bitutil.hh"

namespace catchsim
{

namespace
{

constexpr Addr kData = 0x10000000;
constexpr Addr kSide = 0x30000000;


} // namespace

// ---------------------------------------------------------------------
// BranchyLike
// ---------------------------------------------------------------------

BranchyLike::BranchyLike(std::string name, uint64_t seed,
                         size_t board_bytes, uint32_t mispredict_percent)
    : Workload(std::move(name), Category::Ispec, seed),
      boardBytes_(board_bytes), mispredictPercent_(mispredict_percent)
{
}

void
BranchyLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < boardBytes_ / 8; ++i)
        mem.write(kData + i * 8, rng.next() & 0xff);
}

void
BranchyLike::run(Emitter &em, Rng &rng)
{
    const Addr body = codeBlock(0);
    const size_t words = boardBytes_ / 8;
    for (size_t n = 0; n < 2048 && !em.done(); ++n) {
        // Evaluate a line of the board: the origin load plus three
        // neighbours in the same cache line (board rows are contiguous).
        Addr cell = kData + rng.below(words / 8) * 64;
        em.setPc(body);
        em.alu(r0, {r0, r6});
        em.alu(r0, {r0}, OpClass::Mul);      // position hash
        em.load(r1, {r0}, cell);             // origin (cross trigger)
        em.load(r4, {r0}, cell + 8);         // neighbours: address comes
        em.load(r5, {r0}, cell + 16);        // from the position, not the
        em.load(r6, {r0}, cell + 24);        // loaded value

        em.alu(r7, {r4, r5});
        em.alu(r7, {r7, r6});
        // A data-dependent branch with tunable predictability; the board
        // loads feed it, so they sit on the mispredict critical path.
        bool t = rng.percent(50);
        bool hard = rng.percent(mispredictPercent_ * 2);
        if (!hard)
            t = true; // easy branches are strongly biased
        em.branch(t, body + 0x80, {r1, r7});
        em.alu(r2, {r2, r1});
        em.alu(r3, {r3, r7});
        em.store({r0, r3}, cell, n);
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// InterpreterLike
// ---------------------------------------------------------------------

InterpreterLike::InterpreterLike(std::string name, uint64_t seed,
                                 uint32_t num_handlers, size_t bytecode_len,
                                 size_t hash_bytes)
    : Workload(std::move(name), Category::Ispec, seed),
      numHandlers_(num_handlers), bytecodeLen_(bytecode_len),
      hashBytes_(hash_bytes)
{
}

void
InterpreterLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < bytecodeLen_; ++i)
        mem.write(kData + i * 8, rng.below(numHandlers_));
    for (size_t i = 0; i < hashBytes_ / 8; ++i)
        mem.write(kSide + i * 8, rng.next() & 0xffff);
}

void
InterpreterLike::restart()
{
    pos_ = 0;
}

void
InterpreterLike::run(Emitter &em, Rng &rng)
{
    const Addr dispatch = codeBlock(0);
    const size_t hash_words = hashBytes_ / 8;
    for (size_t n = 0; n < 1024 && !em.done(); ++n, ++pos_) {
        size_t i = pos_ % bytecodeLen_;
        em.setPc(dispatch);
        em.alu(r0, {r0});
        uint64_t opcode = em.load(r1, {r0}, kData + i * 8); // fetch opcode
        // Indirect dispatch: jump to the handler block. Each handler is
        // its own code region, so a large interpreter thrashes the L1I.
        em.branch(true, codeBlock(1 + opcode), {r1});
        // Handler body: a dozen ops plus an occasional hash lookup.
        em.alu(r2, {r2, r1});
        em.alu(r3, {r3, r2});
        em.alu(r4, {r3}, OpClass::Mul);
        em.nops(4);
        if (opcode % 4 == 0) {
            Addr h = kSide + rng.below(hash_words) * 8;
            em.load(r5, {r4}, h);
            em.alu(r6, {r6, r5});
        }
        em.nops(4);
        em.branch(true, dispatch, {r2}); // back to dispatch
    }
}

// ---------------------------------------------------------------------
// CompressLike
// ---------------------------------------------------------------------

CompressLike::CompressLike(std::string name, uint64_t seed,
                           size_t input_bytes)
    : Workload(std::move(name), Category::Ispec, seed),
      inputBytes_(input_bytes)
{
}

void
CompressLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Skewed symbol distribution so run-detection branches are mostly
    // predictable, with occasional surprises.
    for (size_t i = 0; i < inputBytes_ / 8; ++i)
        mem.write(kData + i * 8, rng.percent(70) ? 7 : rng.below(256));
}

void
CompressLike::restart()
{
    pos_ = 0;
}

void
CompressLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 4096 && !em.done(); ++n, ++pos_) {
        size_t i = pos_ % (inputBytes_ / 8);
        em.setPc(body);
        em.alu(r0, {r0});
        uint64_t sym = em.load(r1, {r0}, kData + i * 8);  // input stream
        em.load(r2, {r1}, kSide + (sym & 0xff) * 8);      // freq[sym]
        em.alu(r3, {r3, r2});                             // dependent state
        em.alu(r3, {r3, r1});
        em.store({r1, r3}, kSide + (sym & 0xff) * 8, sym);
        em.branch(sym == 7, body + 0x60, {r1});           // run detection
        em.alu(r4, {r4, r3});
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// MixedIntLike
// ---------------------------------------------------------------------

MixedIntLike::MixedIntLike(std::string name, uint64_t seed,
                           size_t sym_bytes, uint32_t code_blocks)
    : Workload(std::move(name), Category::Ispec, seed),
      symBytes_(sym_bytes), codeBlocks_(code_blocks)
{
}

void
MixedIntLike::setup(FunctionalMemory &mem, Rng &rng)
{
    const size_t words = symBytes_ / 8;
    for (size_t i = 0; i < words; ++i)
        mem.write(kSide + i * 8, kSide + rng.below(words) * 8);
}

void
MixedIntLike::run(Emitter &em, Rng &rng)
{
    const size_t words = symBytes_ / 8;
    for (size_t n = 0; n < 512 && !em.done(); ++n) {
        // Phase 1: visit a few code blocks (moderate code footprint).
        uint32_t blk = rng.below(codeBlocks_);
        em.setPc(codeBlock(blk));
        em.nops(6);
        em.alu(r2, {r2, r1});
        // Phase 2: short pointer hop in the symbol table.
        Addr sym = kSide + rng.below(words) * 8;
        uint64_t p = em.load(r1, {r1}, sym);
        em.load(r3, {r1}, p);
        em.alu(r4, {r4, r3});
        // Phase 3: a couple of semi-predictable branches.
        em.branch(rng.percent(85), codeBlock(blk) + 0x80, {r3});
        em.alu(r5, {r5, r4});
        em.branch(rng.percent(15), codeBlock(blk) + 0x100, {r4});
        em.nops(3);
    }
}

// ---------------------------------------------------------------------
// GridNeighborLike
// ---------------------------------------------------------------------

GridNeighborLike::GridNeighborLike(std::string name, uint64_t seed,
                                   size_t grid_elems, size_t grid_width)
    : Workload(std::move(name), Category::Ispec, seed),
      gridElems_(grid_elems), gridWidth_(grid_width)
{
}

void
GridNeighborLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < gridElems_; i += 4)
        mem.write(kData + i * 8, rng.next() & 0xff);
}

void
GridNeighborLike::restart()
{
    cur_ = gridWidth_ + 1;
}

void
GridNeighborLike::run(Emitter &em, Rng &rng)
{
    const Addr body = codeBlock(0);
    const size_t interior = gridElems_ - 2 * gridWidth_ - 2;
    for (size_t n = 0; n < 2048 && !em.done(); ++n) {
        Addr centre = kData + cur_ * 8;
        em.setPc(body);
        em.alu(r0, {r0});
        // Centre plus 4-neighbourhood: fixed deltas (cross-learnable).
        uint64_t c = em.load(r1, {r0}, centre);
        em.load(r2, {r0}, centre - 8);
        em.load(r3, {r0}, centre + 8);
        em.load(r4, {r0}, centre - gridWidth_ * 8);
        em.load(r5, {r0}, centre + gridWidth_ * 8);
        em.alu(r6, {r2, r3});
        em.alu(r6, {r6, r4});
        em.alu(r6, {r6, r5});
        // Direction choice depends on loaded cost: mispredicting branch.
        em.branch((c ^ n) & 1, body + 0x100, {r1, r6});
        em.alu(r7, {r7, r6});
        em.branch(true, body, {r0});
        // Mostly local movement with occasional long jumps.
        if (rng.percent(90))
            cur_ += (rng.percent(50) ? 1 : gridWidth_);
        else
            cur_ = gridWidth_ + 1 + rng.below(interior);
        if (cur_ + gridWidth_ + 1 >= gridElems_)
            cur_ = gridWidth_ + 1;
    }
}

} // namespace catchsim

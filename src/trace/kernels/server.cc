/**
 * @file
 * Transaction-style, large-code kernels: OltpLike, JavaServerLike,
 * MapReduceLike.
 */

#include "trace/kernels/kernels.hh"

#include "common/bitutil.hh"

namespace catchsim
{

namespace
{

constexpr Addr kPool = 0x100000000; // buffer pool / heap
constexpr Addr kMeta = 0x10000000;  // index roots, dispatch tables
constexpr Addr kLog = 0x50000000;   // append-only log / output

} // namespace

// ---------------------------------------------------------------------
// OltpLike
// ---------------------------------------------------------------------

OltpLike::OltpLike(std::string name, uint64_t seed, uint32_t code_blocks,
                   uint32_t blocks_per_txn, size_t pool_bytes,
                   uint32_t btree_levels)
    : Workload(std::move(name), Category::Server, seed),
      codeBlocks_(code_blocks), blocksPerTxn_(blocks_per_txn),
      poolBytes_(pool_bytes), btreeLevels_(btree_levels)
{
}

void
OltpLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // B-tree: each level is a region of 512 B "pages"; a node stores a
    // child pointer per 64 B slot. Leaves point into the buffer pool.
    const size_t pool_lines = poolBytes_ / kLineBytes;
    size_t level_nodes = 1;
    Addr level_base = kMeta;
    for (uint32_t l = 0; l < btreeLevels_; ++l) {
        size_t next_nodes = level_nodes * 8;
        Addr next_base = level_base + level_nodes * 512;
        for (size_t n = 0; n < level_nodes * 8; ++n) {
            Addr slot = level_base + n * 64;
            if (l + 1 == btreeLevels_)
                mem.write(slot, kPool + rng.below(pool_lines) * kLineBytes);
            else
                mem.write(slot, next_base + (n % next_nodes) * 512);
        }
        level_base = next_base;
        level_nodes = next_nodes;
    }
    for (size_t i = 0; i < pool_lines; i += 8)
        mem.write(kPool + i * kLineBytes, rng.next());
}

void
OltpLike::run(Emitter &em, Rng &rng)
{
    // One transaction: a walk through code blocks. Most calls land in
    // the transaction type's hot block set (L1I-resident); a steady
    // minority land in a 4x larger cold region - the flat instruction
    // miss tail that the L2 absorbs in the baseline and that TACT-Code
    // runahead covers without it.
    uint32_t txn_type = rng.below(4);
    uint32_t start = txn_type * (codeBlocks_ / 4);
    for (uint32_t b = 0; b < blocksPerTxn_ && !em.done(); ++b) {
        uint32_t blk = rng.percent(91)
                           ? start + (b % (codeBlocks_ / 4))
                           : codeBlocks_ + 8 + rng.below(codeBlocks_ * 4);
        em.setPc(codeBlock(blk));
        // ~24 instructions of "business logic" per block: three lines of
        // sequential code, so TACT-Code runahead can cover the misses.
        em.alu(r2, {r2, r1});
        em.nops(5);
        em.alu(r3, {r3, r2});
        em.nops(6);
        em.alu(r4, {r4, r3});
        em.nops(5);
        em.branch(rng.percent(90), codeBlock(blk) + 0x80, {r2});
        em.nops(4);
        em.alu(r5, {r5, r4});
    }
    if (em.done())
        return;
    // Index probe: pointer chase down the tree (critical, hard for TACT).
    const Addr probe = codeBlock(codeBlocks_ + 1);
    em.setPc(probe);
    em.alu(r0, {r0, r5});
    em.alu(r0, {r0}, OpClass::Mul);
    Addr slot = kMeta + rng.below(8) * 64;
    uint64_t node = em.load(r1, {r0}, slot);
    for (uint32_t l = 1; l < btreeLevels_; ++l) {
        em.alu(r2, {r1, r0});
        node = em.load(r1, {r1}, node + rng.below(8) * 64);
    }
    // Row access: read four sequential lines of the row (streamable).
    const Addr rowc = codeBlock(codeBlocks_ + 2);
    em.setPc(rowc);
    for (uint32_t i = 0; i < 4; ++i) {
        em.load(r3, {r1}, node + i * kLineBytes);
        em.alu(r4, {r4, r3});
        em.store({r1, r3}, kLog + (i % 64) * kLineBytes, node);
    }
    em.branch(true, codeBlock(0), {r4});
}

// ---------------------------------------------------------------------
// JavaServerLike
// ---------------------------------------------------------------------

JavaServerLike::JavaServerLike(std::string name, uint64_t seed,
                               size_t heap_bytes, uint32_t code_blocks)
    : Workload(std::move(name), Category::Server, seed),
      heapBytes_(heap_bytes), codeBlocks_(code_blocks)
{
}

void
JavaServerLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Object graph: 64 B objects; each holds two references.
    const size_t objs = heapBytes_ / 64;
    for (size_t i = 0; i < objs; ++i) {
        mem.write(kPool + i * 64, kPool + rng.below(objs) * 64);
        mem.write(kPool + i * 64 + 8, kPool + rng.below(objs) * 64);
        mem.write(kPool + i * 64 + 16, rng.below(1 << 16));
    }
}

void
JavaServerLike::restart()
{
    allocPtr_ = kLog;
}

void
JavaServerLike::run(Emitter &em, Rng &rng)
{
    const size_t objs = heapBytes_ / 64;
    for (size_t n = 0; n < 256 && !em.done(); ++n) {
        // Method-call chain: calls are correlated (a request handler
        // walks a contiguous run of methods), so the footprint cycles
        // rather than being touched at random.
        uint32_t base = rng.below(codeBlocks_);
        if (rng.percent(15))
            base = codeBlocks_ + 8 + rng.below(codeBlocks_ * 4);
        for (uint32_t c = 0; c < 6 && !em.done(); ++c) {
            em.setPc(codeBlock(base + c));
            em.nops(6);
            em.alu(r2, {r2, r1});
            em.nops(5);
            em.branch(rng.percent(88), em.pc() + 0x40, {r2});
            em.nops(4);
        }
        // Object-graph update: two reference hops and a field write.
        const Addr touch = codeBlock(codeBlocks_ + 1);
        em.setPc(touch);
        Addr obj = kPool + rng.below(objs) * 64;
        em.alu(r0, {r0});
        uint64_t ref = em.load(r1, {r0}, obj);
        uint64_t ref2 = em.load(r2, {r1}, ref + 8);
        em.load(r3, {r2}, ref2 + 16);
        em.alu(r4, {r4, r3});
        em.store({r2, r4}, ref2 + 24, n);
        // Allocation: bump-pointer streaming writes (young gen).
        const Addr alloc = codeBlock(codeBlocks_ + 2);
        em.setPc(alloc);
        for (uint32_t w = 0; w < 4; ++w)
            em.store({r0}, allocPtr_ + w * 8, n);
        allocPtr_ += 64;
        if (allocPtr_ >= kLog + 8 * 1024 * 1024)
            allocPtr_ = kLog;
        em.branch(true, alloc, {r0});
    }
}

// ---------------------------------------------------------------------
// MapReduceLike
// ---------------------------------------------------------------------

MapReduceLike::MapReduceLike(std::string name, uint64_t seed,
                             size_t records, size_t groups)
    : Workload(std::move(name), Category::Server, seed), records_(records),
      groups_(groups)
{
}

void
MapReduceLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Records carry a pre-scaled group offset (feeder scale 1).
    for (size_t i = 0; i < records_; ++i)
        mem.write(kMeta + i * 16, rng.below(groups_) * 8);
}

void
MapReduceLike::restart()
{
    pos_ = 0;
}

void
MapReduceLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 4096 && !em.done(); ++n, ++pos_) {
        size_t i = pos_ % records_;
        em.setPc(body);
        em.alu(r0, {r0});
        uint64_t g = em.load(r1, {r0}, kMeta + i * 16);     // record key
        em.load(r2, {r0}, kMeta + i * 16 + 8);              // record value
        uint64_t agg = em.load(r3, {r1}, kLog + g);         // group slot
        em.alu(r4, {r3, r2});
        em.store({r1, r4}, kLog + g, agg + 1);              // aggregate
        em.branch(true, body, {r0});
    }
}

} // namespace catchsim

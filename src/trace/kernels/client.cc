/**
 * @file
 * Interactive-application kernels: FormulaDagLike, DomWalkLike.
 */

#include "trace/kernels/kernels.hh"

namespace catchsim
{

namespace
{

constexpr Addr kCells = 0x10000000;
constexpr Addr kRefs = 0x30000000;
constexpr Addr kStyles = 0x50000000;

} // namespace

// ---------------------------------------------------------------------
// FormulaDagLike
// ---------------------------------------------------------------------

FormulaDagLike::FormulaDagLike(std::string name, uint64_t seed,
                               size_t cells)
    : Workload(std::move(name), Category::Client, seed), cells_(cells)
{
}

void
FormulaDagLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Each cell's formula references two operand cells via a reference
    // table; references are byte offsets (feeder scale 1). Most
    // references are near the cell (spreadsheet locality), some are far.
    for (size_t i = 0; i < cells_; ++i) {
        size_t near = (i + 1 + rng.below(64)) % cells_;
        size_t far = rng.below(cells_);
        mem.write(kRefs + i * 16, near * 8);
        mem.write(kRefs + i * 16 + 8, far * 8);
        mem.write(kCells + i * 8, rng.below(1 << 12));
    }
}

void
FormulaDagLike::restart()
{
    pos_ = 0;
}

void
FormulaDagLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 2048 && !em.done(); ++n, ++pos_) {
        size_t i = pos_ % cells_;
        em.setPc(body);
        em.alu(r0, {r0});
        uint64_t off_a = em.load(r1, {r0}, kRefs + i * 16);   // operand refs
        uint64_t off_b = em.load(r2, {r0}, kRefs + i * 16 + 8);
        uint64_t a = em.load(r3, {r1}, kCells + off_a);       // operand A
        uint64_t b = em.load(r4, {r2}, kCells + off_b);       // operand B
        em.alu(r5, {r3, r4}, OpClass::FpMul);                 // evaluate
        em.alu(r5, {r5, r3}, OpClass::FpAdd);
        em.store({r0, r5}, kCells + i * 8, a + b);            // result
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// DomWalkLike
// ---------------------------------------------------------------------

DomWalkLike::DomWalkLike(std::string name, uint64_t seed, size_t nodes,
                         uint32_t code_blocks)
    : Workload(std::move(name), Category::Client, seed), nodes_(nodes),
      codeBlocks_(code_blocks)
{
}

void
DomWalkLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // DOM-ish nodes: 64 B with first-child / next-sibling pointers and a
    // style-class id. The style table is small and hot.
    for (size_t i = 0; i < nodes_; ++i) {
        Addr a = kCells + i * 64;
        mem.write(a, kCells + rng.below(nodes_) * 64);      // child
        mem.write(a + 8, kCells + rng.below(nodes_) * 64);  // sibling
        mem.write(a + 16, rng.below(512) * 8);              // style offset
    }
    for (size_t i = 0; i < 512; ++i)
        mem.write(kStyles + i * 8, rng.next() & 0xffff);
}

void
DomWalkLike::run(Emitter &em, Rng &rng)
{
    const Addr walk = codeBlock(0);
    for (size_t n = 0; n < 512 && !em.done(); ++n) {
        // Layout pass over a small subtree.
        Addr node = kCells + rng.below(nodes_) * 64;
        em.setPc(walk);
        em.alu(r0, {r0});
        uint64_t cur = node;
        for (uint32_t d = 0; d < 6; ++d) {
            em.setPc(walk + 0x40);
            uint64_t style = em.load(r2, {r1}, cur + 16);   // style offset
            em.load(r3, {r2}, kStyles + style);             // style entry
            em.alu(r4, {r4, r3});
            bool child = rng.percent(60);
            em.branch(child, walk + 0x140, {r3});
            cur = em.load(r1, {r1}, child ? cur : cur + 8); // descend
        }
        // Script callback across the code footprint.
        em.setPc(codeBlock(1 + rng.below(codeBlocks_)));
        em.nops(8);
        em.alu(r5, {r5, r4});
        em.branch(rng.percent(80), em.pc() + 0x40, {r5});
        em.nops(6);
        em.branch(true, walk, {r5});
    }
}

} // namespace catchsim

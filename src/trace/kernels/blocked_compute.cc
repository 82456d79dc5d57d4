/**
 * @file
 * Compute-heavy kernels with cache-resident tiles: BlockedGemmLike,
 * DpTableLike, ManyPcLike, ButterflyLike, Window2dLike.
 */

#include "trace/kernels/kernels.hh"

namespace catchsim
{

namespace
{

constexpr Addr kMatA = 0x10000000;
constexpr Addr kMatB = 0x30000000;
constexpr Addr kMatC = 0x50000000;
constexpr Addr kTables = 0x70000000;

} // namespace

// ---------------------------------------------------------------------
// BlockedGemmLike
// ---------------------------------------------------------------------

BlockedGemmLike::BlockedGemmLike(std::string name, Category cat,
                                 uint64_t seed, size_t block_elems)
    : Workload(std::move(name), cat, seed), blockElems_(block_elems)
{
}

void
BlockedGemmLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < blockElems_ * blockElems_; ++i) {
        mem.write(kMatA + i * 8, rng.next() & 0xff);
        mem.write(kMatB + i * 8, rng.next() & 0xff);
    }
}

void
BlockedGemmLike::restart()
{
    iter_ = 0;
}

void
BlockedGemmLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    const size_t nb = blockElems_;
    // One (i,j) dot product per outer chunk; unrolled by 4 with
    // independent partial sums: high ILP, L1-resident tiles.
    size_t i = iter_ % nb;
    size_t j = (iter_ / nb) % nb;
    ++iter_;
    em.setPc(body);
    em.alu(r4, {});
    em.alu(r5, {});
    for (size_t k = 0; k + 4 <= nb && !em.done(); k += 4) {
        em.setPc(body + 0x40);
        em.alu(r0, {r0});
        em.load(r1, {r0}, kMatA + (i * nb + k) * 8);
        em.load(r2, {r0}, kMatB + (k * nb + j) * 8);
        em.alu(r4, {r4, r1, r2}, OpClass::FpMul);
        em.load(r1, {r0}, kMatA + (i * nb + k + 1) * 8);
        em.load(r2, {r0}, kMatB + ((k + 1) * nb + j) * 8);
        em.alu(r5, {r5, r1, r2}, OpClass::FpMul);
        em.load(r1, {r0}, kMatA + (i * nb + k + 2) * 8);
        em.load(r2, {r0}, kMatB + ((k + 2) * nb + j) * 8);
        em.alu(r6, {r6, r1, r2}, OpClass::FpMul);
        em.load(r1, {r0}, kMatA + (i * nb + k + 3) * 8);
        em.load(r2, {r0}, kMatB + ((k + 3) * nb + j) * 8);
        em.alu(r7, {r7, r1, r2}, OpClass::FpMul);
        em.branch(k + 8 <= nb, body + 0x40, {r0});
    }
    em.setPc(body + 0x200);
    em.alu(r4, {r4, r5}, OpClass::FpAdd);
    em.alu(r4, {r4, r6}, OpClass::FpAdd);
    em.alu(r4, {r4, r7}, OpClass::FpAdd);
    em.store({r4}, kMatC + (i * nb + j) * 8, i + j);
}

// ---------------------------------------------------------------------
// DpTableLike
// ---------------------------------------------------------------------

DpTableLike::DpTableLike(std::string name, uint64_t seed, size_t row_elems,
                         size_t table_bytes, size_t seq_len)
    : Workload(std::move(name), Category::Ispec, seed),
      rowElems_(row_elems), tableBytes_(table_bytes), seqLen_(seq_len)
{
}

void
DpTableLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Sequence symbols are pre-scaled byte offsets into the score tables
    // (feeder scale 1). Three score tables (match/insert/delete) split
    // the table footprint; they are L2-resident in the baseline.
    const size_t table_words = tableBytes_ / (3 * 8);
    for (size_t i = 0; i < seqLen_; ++i)
        mem.write(kMatB + i * 8, rng.below(table_words) * 8);
    for (size_t t = 0; t < 3; ++t)
        for (size_t i = 0; i < table_words; ++i)
            mem.write(kTables + t * table_words * 8 + i * 8,
                      rng.next() & 0xfff);
}

void
DpTableLike::restart()
{
    seqPos_ = 0;
}

void
DpTableLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    const size_t table_words = tableBytes_ / (3 * 8);
    const Addr match = kTables;
    const Addr insert = kTables + table_words * 8;
    const Addr del = kTables + 2 * table_words * 8;
    // One DP anti-diagonal sweep per chunk; prev/cur rows are small and
    // strided (L1/deep-self), score lookups are data-indexed (feeder).
    for (size_t c = 0; c < rowElems_ && !em.done(); ++c, ++seqPos_) {
        size_t i = seqPos_ % seqLen_;
        em.setPc(body);
        em.alu(r0, {r0});
        uint64_t sym = em.load(r1, {r0}, kMatB + i * 8);   // seq (trigger)
        em.load(r2, {r1}, match + sym);                    // match score
        em.load(r3, {r1}, insert + sym);                   // insert score
        em.load(r4, {r1}, del + sym);                      // delete score
        em.load(r5, {r0}, kMatA + (c % rowElems_) * 8);    // prev row
        em.load(r6, {r0}, kMatA + ((c + 1) % rowElems_) * 8);
        // Loop-carried Viterbi max chain: each cell depends on the
        // previous cell's best score, so the score-table loads sit on
        // the critical path (hmmer's signature behaviour in the paper).
        em.alu(r7, {r7, r2});                              // best+match
        em.alu(r8, {r7, r3});                              // +insert
        em.alu(r7, {r8, r5});                              // max(prev row)
        em.alu(r7, {r7, r4});                              // +delete
        em.alu(r7, {r7, r6});
        // The best-path update branches on the loaded scores; it is
        // data-dependent and poorly predictable, exposing the score
        // lookups' latency (this is what makes hmmer lose heavily
        // without an L2 in the paper).
        em.branch(((sym >> 3) & 3) == 0, body + 0x100, {r2, r7});
        em.store({r0, r7}, kMatC + (c % rowElems_) * 8, sym);
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// ManyPcLike
// ---------------------------------------------------------------------

ManyPcLike::ManyPcLike(std::string name, Category cat, uint64_t seed,
                       uint32_t num_pcs, size_t table_bytes)
    : Workload(std::move(name), cat, seed), numPcs_(num_pcs),
      tableBytes_(table_bytes)
{
}

void
ManyPcLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < tableBytes_ / 8; ++i)
        mem.write(kTables + i * 8, rng.next() & 0xffff);
}

void
ManyPcLike::restart()
{
    iter_ = 0;
}

void
ManyPcLike::run(Emitter &em, Rng &rng)
{
    const Addr body = codeBlock(0);
    // Each iteration shades one ray against an object record: a header
    // load (the cross TRIGGER) followed by numPcs_ distinct static field
    // loads at stable sub-page offsets from the record base, spread
    // through a long compute body. Shade-test branches expose the field
    // loads' latency; TACT-Cross can cover them - but with numPcs_
    // beyond the 32-entry critical table, only a fraction win slots
    // (the paper's povray limit).
    const size_t records = tableBytes_ / kPageBytes;
    Addr rec = kTables + rng.below(records) * kPageBytes;
    em.setPc(body);
    em.alu(r0, {r0});
    uint64_t hdr = em.load(r1, {r0}, rec); // record header (trigger)
    em.alu(r2, {r2, r1});
    for (uint32_t p = 0; p < numPcs_ && !em.done(); ++p) {
        uint64_t v = em.load(r4, {r0}, rec + 8 + p * 40); // object field
        em.alu(r2, {r2, r4});
        em.alu(r3, {r2}, OpClass::FpMul);
        em.alu(r5, {r3, r4}, OpClass::FpAdd);
        if (p % 8 == 7)
            em.branch((v ^ hdr) % 8 == 0, em.pc() + 0x40,
                      {r4, r2}); // shade test
    }
    ++iter_;
    em.branch(true, body, {r2});
}

// ---------------------------------------------------------------------
// ButterflyLike
// ---------------------------------------------------------------------

ButterflyLike::ButterflyLike(std::string name, Category cat, uint64_t seed,
                             size_t elems)
    : Workload(std::move(name), cat, seed), elems_(elems)
{
}

void
ButterflyLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < elems_; ++i)
        mem.write(kMatA + i * 8, rng.next() & 0xffff);
}

void
ButterflyLike::restart()
{
    stage_ = 0;
}

void
ButterflyLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    // One butterfly stage per chunk: pairs (i, i+span) with power-of-two
    // span; strided with two streams per stage.
    size_t num_stages = 1;
    while ((elems_ >> num_stages) > 1)
        ++num_stages;
    size_t span = 1ULL << (stage_ % num_stages);
    ++stage_;
    for (size_t i = 0; i + span < elems_ && !em.done(); i += 2 * span) {
        em.setPc(body);
        em.alu(r0, {r0});
        em.load(r1, {r0}, kMatA + i * 8);
        em.load(r2, {r0}, kMatA + (i + span) * 8);
        em.alu(r3, {r1, r2}, OpClass::FpAdd);
        em.alu(r4, {r1, r2}, OpClass::FpMul);
        em.store({r0, r3}, kMatA + i * 8, i);
        em.store({r0, r4}, kMatA + (i + span) * 8, i + span);
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// Window2dLike
// ---------------------------------------------------------------------

Window2dLike::Window2dLike(std::string name, Category cat, uint64_t seed,
                           size_t width, size_t height, uint32_t window)
    : Workload(std::move(name), cat, seed), width_(width), height_(height),
      window_(window)
{
}

void
Window2dLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < width_ * height_; i += 16)
        mem.write(kMatA + i * 8, rng.next() & 0xff);
}

void
Window2dLike::restart()
{
    row_ = 0;
    col_ = 0;
}

void
Window2dLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    // SAD over a window_ x window_ patch at a sliding anchor; the window
    // loads are fixed deltas from the anchor (cross associations) and the
    // patch has dense reuse.
    for (size_t n = 0; n < 256 && !em.done(); ++n) {
        Addr anchor = kMatA + (row_ * width_ + col_) * 8;
        em.setPc(body);
        em.alu(r0, {r0});
        em.load(r1, {r0}, anchor);
        uint64_t sad = 0;
        for (uint32_t dy = 0; dy < window_; ++dy) {
            for (uint32_t dx = 0; dx < window_; ++dx) {
                sad += em.load(r2, {r0}, anchor + (dy * width_ + dx) * 8);
                em.load(r3, {r0}, kMatB + (dy * window_ + dx) * 8);
                em.alu(r4, {r2, r3});
                em.alu(r5, {r5, r4});
            }
        }
        // Early-exit threshold test on the accumulated SAD: data
        // dependent, taken for a minority of candidate positions.
        em.branch((sad & 15) == 0, body + 0x200, {r5});
        em.branch(true, body, {r0});
        col_ += 2;
        if (col_ + window_ >= width_) {
            col_ = 0;
            row_ = (row_ + 1) % (height_ - window_ - 1);
        }
    }
}

} // namespace catchsim

/**
 * @file
 * Regular / bandwidth-style kernels: StreamTriadLike, StencilLike,
 * SparseMatVecLike, ReductionChainLike, GatherLike.
 */

#include "trace/kernels/kernels.hh"

namespace catchsim
{

namespace
{

constexpr Addr kArrA = 0x10000000;
constexpr Addr kArrB = 0x30000000;
constexpr Addr kArrC = 0x50000000;
constexpr Addr kArrD = 0x70000000;

} // namespace

// ---------------------------------------------------------------------
// StreamTriadLike
// ---------------------------------------------------------------------

StreamTriadLike::StreamTriadLike(std::string name, Category cat,
                                 uint64_t seed, size_t elems,
                                 uint32_t compute_per_elem)
    : Workload(std::move(name), cat, seed), elems_(elems),
      computePerElem_(compute_per_elem)
{
}

void
StreamTriadLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Streams read mostly-zero pages; only seed a sparse sample so setup
    // stays fast for multi-hundred-MB arrays.
    for (size_t i = 0; i < elems_; i += 512)
        mem.write(kArrB + i * 8, rng.next() & 0xffff);
}

void
StreamTriadLike::restart()
{
    pos_ = 0;
}

void
StreamTriadLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 8192 && !em.done(); ++n, ++pos_) {
        size_t i = pos_ % elems_;
        em.setPc(body);
        em.alu(r0, {r0});                       // i++
        uint64_t b = em.load(r1, {r0}, kArrB + i * 8);
        uint64_t c = em.load(r2, {r0}, kArrC + i * 8);
        em.alu(r3, {r1, r2}, OpClass::FpMul);   // b*s
        em.alu(r3, {r3, r2}, OpClass::FpAdd);   // +c
        for (uint32_t k = 0; k < computePerElem_; ++k)
            em.alu(r4, {r3, r1}, OpClass::FpMul); // independent extra work
        em.store({r0, r3}, kArrA + i * 8, b + c);
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// CyclicScanLike
// ---------------------------------------------------------------------

CyclicScanLike::CyclicScanLike(std::string name, Category cat,
                               uint64_t seed, size_t footprint_bytes)
    : Workload(std::move(name), cat, seed),
      footprintBytes_(footprint_bytes)
{
}

void
CyclicScanLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < footprintBytes_; i += 4096)
        mem.write(kArrA + i, rng.next() & 0xffff);
}

void
CyclicScanLike::restart()
{
    line_ = 0;
}

void
CyclicScanLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    const size_t lines = footprintBytes_ / kLineBytes;
    for (size_t n = 0; n < 16384 && !em.done(); ++n, ++line_) {
        em.setPc(body);
        em.alu(r0, {r0});
        em.load(r1, {r0}, kArrA + (line_ % lines) * kLineBytes);
        em.alu(r2, {r2, r1}, OpClass::FpAdd);
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// StencilLike
// ---------------------------------------------------------------------

StencilLike::StencilLike(std::string name, Category cat, uint64_t seed,
                         size_t row_elems, size_t rows)
    : Workload(std::move(name), cat, seed), rowElems_(row_elems),
      rows_(rows)
{
}

void
StencilLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < rowElems_ * 2; i += 64)
        mem.write(kArrA + i * 8, rng.next() & 0xffff);
}

void
StencilLike::restart()
{
    row_ = 1;
}

void
StencilLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    const size_t row_bytes = rowElems_ * 8;
    // 5-point stencil: out[r][c] from in[r-1][c], in[r][c-1..c+1],
    // in[r+1][c]. The +/- one-row loads are constant deltas from the
    // centre load: classic TACT-Cross triggers.
    for (size_t n = 0; n < 4096 && !em.done(); ++n) {
        size_t r = row_ % (rows_ - 2) + 1;
        for (size_t c = 1; c + 1 < rowElems_ && !em.done(); ++c) {
            Addr centre = kArrA + r * row_bytes + c * 8;
            em.setPc(body);
            em.alu(r0, {r0});
            uint64_t v0 = em.load(r1, {r0}, centre);
            uint64_t v1 = em.load(r2, {r0}, centre - 8);
            uint64_t v2 = em.load(r3, {r0}, centre + 8);
            uint64_t v3 = em.load(r4, {r0}, centre - row_bytes);
            uint64_t v4 = em.load(r5, {r0}, centre + row_bytes);
            em.alu(r6, {r1, r2}, OpClass::FpAdd);
            em.alu(r6, {r6, r3}, OpClass::FpAdd);
            em.alu(r6, {r6, r4}, OpClass::FpAdd);
            em.alu(r6, {r6, r5}, OpClass::FpAdd);
            em.store({r0, r6}, kArrB + r * row_bytes + c * 8,
                     v0 + v1 + v2 + v3 + v4);
            em.branch(true, body, {r0});
        }
        ++row_;
    }
}

// ---------------------------------------------------------------------
// SparseMatVecLike
// ---------------------------------------------------------------------

SparseMatVecLike::SparseMatVecLike(std::string name, uint64_t seed,
                                   size_t rows, size_t nnz_per_row,
                                   size_t x_elems)
    : Workload(std::move(name), Category::Fspec, seed), rows_(rows),
      nnzPerRow_(nnz_per_row), xElems_(x_elems)
{
}

void
SparseMatVecLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // col_idx[j] in region B holds *scaled byte offsets* into x (region C)
    // so the gather address is x_base + data: feeder scale 1.
    const size_t nnz = rows_ * nnzPerRow_;
    for (size_t j = 0; j < nnz; ++j) {
        mem.write(kArrB + j * 8, rng.below(xElems_) * 8);
        mem.write(kArrD + j * 8, rng.next() & 0xffff); // values
    }
    for (size_t i = 0; i < xElems_; i += 8)
        mem.write(kArrC + i * 8, rng.next() & 0xffff);
}

void
SparseMatVecLike::restart()
{
    row_ = 0;
}

void
SparseMatVecLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    const Addr inner = codeBlock(1);
    for (size_t n = 0; n < 512 && !em.done(); ++n) {
        size_t r = row_ % rows_;
        em.setPc(body);
        em.alu(r0, {r0});
        em.alu(r7, {r7});                 // y accumulator reset
        for (size_t k = 0; k < nnzPerRow_; ++k) {
            size_t j = r * nnzPerRow_ + k;
            em.setPc(inner);
            em.alu(r0, {r0});
            uint64_t off = em.load(r1, {r0}, kArrB + j * 8); // col (trigger)
            uint64_t xv = em.load(r2, {r1}, kArrC + off);    // x[col]
            em.load(r3, {r0}, kArrD + j * 8);                // a[j]
            em.alu(r4, {r2, r3}, OpClass::FpMul);
            em.alu(r7, {r7, r4}, OpClass::FpAdd);            // y += a*x
            em.branch(k + 1 < nnzPerRow_, inner, {r0});
            (void)xv;
        }
        em.setPc(body + 0x200);
        em.store({r0, r7}, kArrA + r * 8, r);
        em.branch(true, body, {r0});
        ++row_;
    }
}

// ---------------------------------------------------------------------
// ReductionChainLike
// ---------------------------------------------------------------------

ReductionChainLike::ReductionChainLike(std::string name, Category cat,
                                       uint64_t seed, size_t stream_elems,
                                       size_t table_bytes)
    : Workload(std::move(name), cat, seed), streamElems_(stream_elems),
      tableBytes_(table_bytes)
{
}

void
ReductionChainLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Streamed phase indices select coefficients from an L2-resident
    // table; index data is a scaled byte offset (feeder scale 1).
    for (size_t i = 0; i < streamElems_; ++i)
        mem.write(kArrA + i * 8, rng.below(tableBytes_ / 8) * 8);
    for (size_t i = 0; i < tableBytes_ / 8; ++i)
        mem.write(kArrC + i * 8, rng.next() & 0xffff);
}

void
ReductionChainLike::restart()
{
    pos_ = 0;
}

void
ReductionChainLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 8192 && !em.done(); ++n, ++pos_) {
        size_t i = pos_ % streamElems_;
        em.setPc(body);
        em.alu(r0, {r0});
        uint64_t off = em.load(r1, {r0}, kArrA + i * 8); // phase (trigger)
        em.load(r2, {r1}, kArrC + off);                  // coeff[phase]
        em.alu(r3, {r3, r2}, OpClass::FpMul);            // serial FP chain
        em.alu(r3, {r3, r1}, OpClass::FpAdd);
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// GatherLike
// ---------------------------------------------------------------------

GatherLike::GatherLike(std::string name, Category cat, uint64_t seed,
                       size_t num_indices, size_t data_elems)
    : Workload(std::move(name), cat, seed), numIndices_(num_indices),
      dataElems_(data_elems)
{
}

void
GatherLike::setup(FunctionalMemory &mem, Rng &rng)
{
    for (size_t i = 0; i < numIndices_; ++i)
        mem.write(kArrA + i * 8, rng.below(dataElems_) * 8);
    for (size_t i = 0; i < dataElems_; i += 64)
        mem.write(kArrB + i * 8, rng.next() & 0xffff);
}

void
GatherLike::restart()
{
    pos_ = 0;
}

void
GatherLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 8192 && !em.done(); ++n, ++pos_) {
        size_t i = pos_ % numIndices_;
        em.setPc(body);
        em.alu(r0, {r0});
        uint64_t off = em.load(r1, {r0}, kArrA + i * 8); // index (trigger)
        uint64_t v = em.load(r2, {r1}, kArrB + off);     // gather
        em.alu(r3, {r3, r2}, OpClass::FpAdd);
        em.store({r0, r2}, kArrC + i * 8, v);
        em.branch(true, body, {r0});
    }
}

} // namespace catchsim

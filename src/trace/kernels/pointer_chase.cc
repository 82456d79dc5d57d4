/**
 * @file
 * Irregular, dependent-load kernels: McfLike, EventQueueLike,
 * TreeWalkLike, HashProbeLike, ChaseLocalLike.
 */

#include "trace/kernels/kernels.hh"

#include <utility>
#include <vector>

#include "common/bitutil.hh"

namespace catchsim
{

namespace
{

// Disjoint data regions so kernels' structures never alias.
constexpr Addr kRegionA = 0x10000000; // primary arrays
constexpr Addr kRegionB = 0x30000000; // secondary arrays / node arenas
constexpr Addr kRegionC = 0x50000000; // tertiary tables

} // namespace

// ---------------------------------------------------------------------
// McfLike
// ---------------------------------------------------------------------

McfLike::McfLike(std::string name, uint64_t seed, size_t num_arcs,
                 size_t num_nodes)
    : Workload(std::move(name), Category::Ispec, seed),
      numArcs_(num_arcs), numNodes_(num_nodes)
{
}

void
McfLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Arc array: 32 B records whose first word points at a random node.
    // Node records are 64 B (one cache line); each node also points at
    // its head node (the second chase hop).
    for (size_t i = 0; i < numArcs_; ++i) {
        Addr node = kRegionB + rng.below(numNodes_) * 64;
        mem.write(kRegionA + i * 32, node);
        mem.write(kRegionA + i * 32 + 8, rng.below(1000)); // arc cost
    }
    for (size_t i = 0; i < numNodes_; ++i) {
        mem.write(kRegionB + i * 64,
                  kRegionB + rng.below(numNodes_) * 64); // head pointer
        mem.write(kRegionB + i * 64 + 16, rng.below(1 << 20)); // potential
    }
}

void
McfLike::restart()
{
    pos_ = 0;
}

void
McfLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 4096 && !em.done(); ++n, ++pos_) {
        Addr arc = kRegionA + (pos_ % numArcs_) * 32;
        em.setPc(body);
        em.alu(r0, {r0});                             // i++
        uint64_t node = em.load(r1, {r0}, arc);       // arc->tail (trigger)
        uint64_t cost = em.load(r4, {r0}, arc + 8);   // arc->cost
        uint64_t pot = em.load(r2, {r1}, node + 16);  // tail->potential
        uint64_t head = em.load(r7, {r1}, node);      // tail->head (hop 2)
        uint64_t hpot = em.load(r8, {r7}, head + 16); // head->potential
        // Negative-reduced-cost test: depends on both potentials and is
        // taken unpredictably for a quarter of the arcs, exposing the
        // node loads' latency after mispredicts (mcf's signature). The
        // head hop is a depth-2 chase: its feeder (the tail load) has no
        // address stride, so TACT cannot run ahead of it.
        em.branch(((pot ^ cost ^ hpot) & 3) == 0, body + 0x80, {r2, r8});
        em.alu(r3, {r3, r2});                         // dependent reduce
        em.alu(r5, {r4, r8});
        em.alu(r6, {r5, r3});
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// EventQueueLike
// ---------------------------------------------------------------------

EventQueueLike::EventQueueLike(std::string name, uint64_t seed,
                               size_t num_buckets, size_t nodes_per_bucket)
    : Workload(std::move(name), Category::Ispec, seed),
      numBuckets_(num_buckets), nodesPerBucket_(nodes_per_bucket)
{
}

void
EventQueueLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Bucket heads in region A; 64 B nodes in region B, randomly placed
    // so each bucket's list hops across the arena.
    const size_t arena = numBuckets_ * nodesPerBucket_;
    for (size_t b = 0; b < numBuckets_; ++b) {
        Addr prev = 0;
        for (size_t k = 0; k < nodesPerBucket_; ++k) {
            Addr node = kRegionB + rng.below(arena) * 64;
            if (k == 0)
                mem.write(kRegionA + b * 8, node);
            else
                mem.write(prev, node); // prev->next
            mem.write(node + 8, rng.below(1 << 16)); // timestamp
            prev = node;
        }
        mem.write(prev, 0); // list terminator
    }
}

void
EventQueueLike::restart()
{
    pos_ = 0;
}

void
EventQueueLike::run(Emitter &em, Rng &rng)
{
    const Addr body = codeBlock(0);
    const Addr chase = codeBlock(1);
    // Calendar queues advance through their buckets in time order: the
    // bucket scan is sequential (so the head-pointer loads are
    // runahead-coverable), while the per-bucket list walk remains a
    // pure chase.
    for (size_t n = 0; n < 1024 && !em.done(); ++n, ++pos_) {
        size_t bucket = pos_ % numBuckets_;
        em.setPc(body);
        em.alu(r0, {r0});                        // bucket cursor++
        Addr head = kRegionA + bucket * 8;
        uint64_t node = em.load(r1, {r0}, head); // bucket head
        // Walk a data-dependent number of nodes (average ~half the list).
        size_t hops = 1 + rng.below(nodesPerBucket_);
        for (size_t h = 0; h < hops && node != 0; ++h) {
            em.setPc(chase);
            em.load(r2, {r1}, node + 8);         // node->time
            em.alu(r3, {r3, r2});
            uint64_t next = em.load(r1, {r1}, node); // node->next (chase)
            bool cont = (h + 1 < hops) && next != 0;
            em.branch(cont, chase, {r1, r2});
            node = next;
        }
        em.setPc(body + 0x100);
        em.store({r1, r3}, kRegionC + bucket * 8, bucket); // schedule note
        em.branch(true, body, {r0});
    }
}

// ---------------------------------------------------------------------
// TreeWalkLike
// ---------------------------------------------------------------------

TreeWalkLike::TreeWalkLike(std::string name, Category cat, uint64_t seed,
                           size_t num_nodes, uint32_t compute_per_level)
    : Workload(std::move(name), cat, seed), numNodes_(num_nodes),
      computePerLevel_(compute_per_level)
{
    depth_ = floorLog2(num_nodes);
}

void
TreeWalkLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Implicit complete binary tree over randomly placed 32 B nodes.
    // Node i's children are 2i+1 / 2i+2; placement is a random shuffle so
    // descents have no spatial locality.
    std::vector<Addr> slots(numNodes_);
    for (size_t i = 0; i < numNodes_; ++i)
        slots[i] = kRegionB + i * 32;
    for (size_t i = numNodes_ - 1; i > 0; --i)
        std::swap(slots[i], slots[rng.below(i + 1)]);
    for (size_t i = 0; i < numNodes_; ++i) {
        Addr a = slots[i];
        size_t l = 2 * i + 1, r = 2 * i + 2;
        mem.write(a, l < numNodes_ ? slots[l] : slots[0]);
        mem.write(a + 8, r < numNodes_ ? slots[r] : slots[0]);
        mem.write(a + 16, rng.next() & 0xffff); // key
    }
    mem.write(kRegionA, slots[0]); // root pointer
}

void
TreeWalkLike::run(Emitter &em, Rng &rng)
{
    const Addr body = codeBlock(0);
    const Addr level = codeBlock(1);
    for (size_t n = 0; n < 512 && !em.done(); ++n) {
        em.setPc(body);
        uint64_t node = em.load(r1, {r0}, kRegionA); // root
        for (uint32_t d = 0; d < depth_; ++d) {
            em.setPc(level);
            em.load(r2, {r1}, node + 16);            // key
            bool go_left = rng.percent(50);          // data-dependent
            em.branch(go_left, level + 0x40, {r2, r3});
            for (uint32_t c = 0; c < computePerLevel_; ++c)
                em.alu(r4, {r4, r2});
            uint64_t next = em.load(r1, {r1},
                                    go_left ? node : node + 8); // child
            node = next;
        }
        em.setPc(body + 0x200);
        em.alu(r5, {r5, r2});
        em.branch(true, body, {r5});
    }
}

// ---------------------------------------------------------------------
// HashProbeLike
// ---------------------------------------------------------------------

HashProbeLike::HashProbeLike(std::string name, Category cat, uint64_t seed,
                             size_t num_keys, size_t num_buckets)
    : Workload(std::move(name), cat, seed), numKeys_(num_keys),
      numBuckets_(num_buckets)
{
}

void
HashProbeLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Keys are pre-hashed bucket indices (so the bucket address is a
    // linear function of the key load's data: feeder-learnable).
    for (size_t i = 0; i < numKeys_; ++i)
        mem.write(kRegionA + i * 8, rng.below(numBuckets_));
    // Each bucket holds a pointer to a 64 B entry in region C.
    for (size_t b = 0; b < numBuckets_; ++b) {
        Addr entry = kRegionC + rng.below(numBuckets_) * 64;
        mem.write(kRegionB + b * 8, entry);
        mem.write(entry + 8, rng.below(1 << 18)); // entry payload
    }
}

void
HashProbeLike::restart()
{
    pos_ = 0;
}

void
HashProbeLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    for (size_t n = 0; n < 4096 && !em.done(); ++n, ++pos_) {
        Addr key_addr = kRegionA + (pos_ % numKeys_) * 8;
        em.setPc(body);
        em.alu(r0, {r0});                               // i++
        uint64_t idx = em.load(r1, {r0}, key_addr);     // key (trigger)
        uint64_t entry = em.load(r2, {r1},
                                 kRegionB + idx * 8);   // bucket[key]
        uint64_t v = em.load(r3, {r2}, entry + 8);      // entry payload
        em.alu(r4, {r4, r3});                           // dependent reduce
        em.alu(r5, {r4, r1});
        em.branch(true, body, {r0});
        (void)v;
    }
}

// ---------------------------------------------------------------------
// ChaseLocalLike
// ---------------------------------------------------------------------

ChaseLocalLike::ChaseLocalLike(std::string name, Category cat,
                               uint64_t seed, size_t footprint_bytes,
                               uint32_t compute_per_hop)
    : Workload(std::move(name), cat, seed),
      footprintBytes_(footprint_bytes), computePerHop_(compute_per_hop)
{
}

namespace
{

/** Writes a Sattolo-cycle pointer ring of one slot per line. */
void
buildRing(FunctionalMemory &mem, Rng &rng, Addr base, size_t bytes)
{
    const size_t lines = bytes / kLineBytes;
    std::vector<uint32_t> perm(lines);
    for (size_t i = 0; i < lines; ++i)
        perm[i] = static_cast<uint32_t>(i);
    for (size_t i = lines - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i)]);
    for (size_t i = 0; i < lines; ++i)
        mem.write(base + i * kLineBytes, base + perm[i] * kLineBytes);
}

} // namespace

void
ChaseLocalLike::setup(FunctionalMemory &mem, Rng &rng)
{
    // Two pointer rings with no exploitable stride or data association:
    // a hot ring that fits the L1 (the neighbour lists namd/gromacs
    // iterate repeatedly) and a cold ring sized by the footprint (the
    // periodic far-field updates that live in the L2).
    buildRing(mem, rng, kRegionA, 16 * 1024);
    buildRing(mem, rng, kRegionB, footprintBytes_);
}

void
ChaseLocalLike::restart()
{
    cur_ = kRegionA;
    curFar_ = kRegionB;
}

void
ChaseLocalLike::run(Emitter &em, Rng &rng)
{
    (void)rng;
    const Addr body = codeBlock(0);
    // The hot ring chases every iteration (L1-resident); every
    // fourteenth hop also follows the cold ring, whose L2 residency is
    // what the no-L2 configurations lose. Neither ring has a stride or
    // data association TACT could learn.
    for (size_t n = 0; n < 4096 && !em.done(); ++n) {
        em.setPc(body);
        uint64_t next = em.load(r1, {r1}, cur_); // hot chase
        em.alu(r0, {r0});
        em.load(r3, {r0}, kRegionC + (n % 4096) * 8); // dense positions
        em.alu(r5, {r3, r1}, OpClass::FpMul);
        // Independent per-hop force computation (fresh destinations each
        // iteration: the chase is the only loop-carried chain).
        for (uint32_t c = 0; c < computePerHop_; ++c)
            em.alu(c % 2 ? r6 : r2, {r1, r3}, OpClass::FpMul);
        if (n % 14 == 13) {
            // Far-field lookup: the slot is derived from the current
            // neighbour (the hot value just loaded), so it cannot issue
            // until the hot hop completes, and the mixing makes the
            // address unlearnable for TACT. Its result feeds the next
            // hot hop: the cold ring's L2 latency sits on the chain.
            const size_t far_lines = footprintBytes_ / kLineBytes;
            Addr far_addr =
                kRegionB + (mix64(next) % far_lines) * kLineBytes;
            em.load(r9, {r1}, far_addr);
            em.alu(r2, {r2, r9});
            em.alu(r1, {r1, r9});
        }
        em.store({r0, r5}, kRegionC + 0x200000 + (n % 4096) * 8, next);
        em.branch(true, body, {r2});
        cur_ = next;
    }
}

} // namespace catchsim

/**
 * @file
 * Synthetic workload kernels.
 *
 * Each kernel stands in for a class of applications from the paper's
 * 70-workload study list (SPEC CPU 2006 INT/FP, HPC, server, client) and
 * is engineered to reproduce that class's published interaction with the
 * cache hierarchy: where its working set lives, whether its critical loads
 * are strided / cross-correlated / pointer-chased / unprefetchable, its
 * branch behaviour, and its code footprint. See DESIGN.md section 2.
 *
 * Naming convention: FooLike means "behaves like the paper's foo", not
 * "is foo".
 */

#ifndef CATCHSIM_TRACE_KERNELS_KERNELS_HH_
#define CATCHSIM_TRACE_KERNELS_KERNELS_HH_

#include "trace/workload.hh"

namespace catchsim
{

// ---------------------------------------------------------------------
// pointer_chase.cc - irregular, dependent-load kernels
// ---------------------------------------------------------------------

/**
 * mcf-like: streams an arc array (strided trigger loads), dereferences a
 * per-arc node pointer (feeder target) and takes a second chase hop to
 * the node's head node. An unpredictable negative-reduced-cost branch
 * exposes the node loads. TACT-Feeder runs ahead on the arc stream and
 * chases the first hop; the depth-2 head hop has no strided feeder and
 * stays uncovered.
 */
class McfLike : public Workload
{
  public:
    McfLike(std::string name, uint64_t seed, size_t num_arcs,
            size_t num_nodes);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t numArcs_;
    size_t numNodes_;
    size_t pos_ = 0;
};

/**
 * omnetpp-like event queue: advances sequentially through the calendar
 * buckets (time order) and walks each bucket's short intrusive list with
 * a data-dependent hop count. The node arena is L2/LLC-resident; the
 * list walk is a chase the prefetchers cannot cover.
 */
class EventQueueLike : public Workload
{
  public:
    EventQueueLike(std::string name, uint64_t seed, size_t num_buckets,
                   size_t nodes_per_bucket);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t numBuckets_;
    size_t nodesPerBucket_;
    size_t pos_ = 0;
};

/**
 * xalancbmk/astar-like tree search: random descents through a binary tree
 * with data-dependent direction branches. Criticality comes from the
 * child-pointer chase; mispredicts come from the comparisons.
 */
class TreeWalkLike : public Workload
{
  public:
    TreeWalkLike(std::string name, Category cat, uint64_t seed,
                 size_t num_nodes, uint32_t compute_per_level);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t numNodes_;
    uint32_t computePerLevel_;
    uint32_t depth_ = 0;
};

/**
 * Hash-join-like probe: streams a key array (trigger), hashes, loads the
 * bucket head (indexed) and dereferences the entry (feeder chase).
 */
class HashProbeLike : public Workload
{
  public:
    HashProbeLike(std::string name, Category cat, uint64_t seed,
                  size_t num_keys, size_t num_buckets);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t numKeys_;
    size_t numBuckets_;
    size_t pos_ = 0;
};

/**
 * namd/gromacs-like: a hot L1-resident pointer ring (the neighbour lists)
 * with a periodic far-field lookup whose slot is a mixed hash of the
 * current neighbour - serial, L2-resident, and with no address or data
 * association TACT can exploit, so (as in the paper) CATCH cannot
 * recover the no-L2 loss here.
 */
class ChaseLocalLike : public Workload
{
  public:
    ChaseLocalLike(std::string name, Category cat, uint64_t seed,
                   size_t footprint_bytes, uint32_t compute_per_hop);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t footprintBytes_;
    uint32_t computePerHop_;
    Addr cur_ = 0;
    Addr curFar_ = 0;
};

// ---------------------------------------------------------------------
// streaming.cc - regular, bandwidth-style kernels
// ---------------------------------------------------------------------

/**
 * lbm/libquantum-like stream triad over arrays far larger than the LLC.
 * Independent iterations: plenty of MLP, little criticality, stream
 * prefetcher territory.
 */
class StreamTriadLike : public Workload
{
  public:
    StreamTriadLike(std::string name, Category cat, uint64_t seed,
                    size_t elems, uint32_t compute_per_elem);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t elems_;
    uint32_t computePerElem_;
    size_t pos_ = 0;
};

/**
 * libquantum-like cyclic scan: sparse sequential sweeps (one load per
 * cache line) over an array, repeated end-to-end. The classic LRU
 * capacity cliff: an LLC smaller than the array misses every line of
 * every pass, a larger one hits every line after the first pass - this
 * is the workload class that separates the 6.5 MB and 9.5 MB no-L2
 * configurations.
 */
class CyclicScanLike : public Workload
{
  public:
    CyclicScanLike(std::string name, Category cat, uint64_t seed,
                   size_t footprint_bytes);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t footprintBytes_;
    size_t line_ = 0;
};

/**
 * leslie3d/zeusmp-like 5-point stencil over a plane sized for L2
 * residency of the neighbouring rows. Strided critical loads that
 * TACT-Deep-Self can cover.
 */
class StencilLike : public Workload
{
  public:
    StencilLike(std::string name, Category cat, uint64_t seed,
                size_t row_elems, size_t rows);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t rowElems_;
    size_t rows_;
    size_t row_ = 1;
};

/**
 * soplex-like CSR sparse matrix-vector product: strided row pointers,
 * streamed column indices/values, and a gather into the x vector whose
 * address is the column index load's data (feeder).
 */
class SparseMatVecLike : public Workload
{
  public:
    SparseMatVecLike(std::string name, uint64_t seed, size_t rows,
                     size_t nnz_per_row, size_t x_elems);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t rows_;
    size_t nnzPerRow_;
    size_t xElems_;
    size_t row_ = 0;
};

/**
 * milc-like: dependent FP accumulation over streamed data plus lookups
 * into an L2-resident coefficient table; the serial FP chain makes the
 * table lookups critical.
 */
class ReductionChainLike : public Workload
{
  public:
    ReductionChainLike(std::string name, Category cat, uint64_t seed,
                       size_t stream_elems, size_t table_bytes);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t streamElems_;
    size_t tableBytes_;
    size_t pos_ = 0;
};

/**
 * GemsFDTD-like gather: a streamed index array drives loads from a data
 * array larger than the LLC (index data -> gather address: feeder).
 */
class GatherLike : public Workload
{
  public:
    GatherLike(std::string name, Category cat, uint64_t seed,
               size_t num_indices, size_t data_elems);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t numIndices_;
    size_t dataElems_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// blocked_compute.cc - compute-heavy kernels with cache-resident tiles
// ---------------------------------------------------------------------

/**
 * hplinpack-like blocked matrix multiply: L1-resident tiles, FMA chains,
 * high IPC, very low sensitivity to the outer hierarchy.
 */
class BlockedGemmLike : public Workload
{
  public:
    BlockedGemmLike(std::string name, Category cat, uint64_t seed,
                    size_t block_elems);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t blockElems_;
    size_t iter_ = 0;
};

/**
 * hmmer-like dynamic-programming inner loop: strided DP rows (L1) plus
 * score-table lookups indexed by streamed sequence bytes. The score
 * tables are L2-resident, so this kernel is the paper's poster child for
 * losing big without an L2 - and for recovery via TACT (feeder covers the
 * table lookups, deep-self the rows).
 */
class DpTableLike : public Workload
{
  public:
    DpTableLike(std::string name, uint64_t seed, size_t row_elems,
                size_t table_bytes, size_t seq_len);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t rowElems_;
    size_t tableBytes_;
    size_t seqLen_;
    size_t seqPos_ = 0;
};

/**
 * povray-like ray shading: a record-header load (cross trigger) followed
 * by many distinct static field loads at stable sub-page offsets, spread
 * through a long compute body with shade-test branches. With more target
 * PCs than the 32-entry critical table holds, coverage is partial -
 * the paper's critical-table-thrashing limit case. With few PCs and an
 * L1-resident table it doubles as the compute-bound blackscholes.
 */
class ManyPcLike : public Workload
{
  public:
    ManyPcLike(std::string name, Category cat, uint64_t seed,
               uint32_t num_pcs, size_t table_bytes);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    uint32_t numPcs_;
    size_t tableBytes_;
    uint64_t iter_ = 0;
};

/**
 * calculix/fft-like butterfly passes: power-of-two strided accesses over
 * a mid-sized working set with arithmetic between stages.
 */
class ButterflyLike : public Workload
{
  public:
    ButterflyLike(std::string name, Category cat, uint64_t seed,
                  size_t elems);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t elems_;
    size_t stage_ = 0;
};

/**
 * h264/facedet-like 2D sliding window: dense reuse within a window plus
 * constant-delta neighbour loads (TACT-Cross territory).
 */
class Window2dLike : public Workload
{
  public:
    Window2dLike(std::string name, Category cat, uint64_t seed,
                 size_t width, size_t height, uint32_t window);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t width_;
    size_t height_;
    uint32_t window_;
    size_t row_ = 0;
    size_t col_ = 0;
};

// ---------------------------------------------------------------------
// branchy.cc - control-flow-dominated kernels
// ---------------------------------------------------------------------

/**
 * gobmk/sjeng-like: line-local board scans (origin + three same-line
 * neighbours) feeding data-dependent branches with tunable
 * predictability. Mispredicts bound performance; the board loads behind
 * them are critical but their random origins defeat every prefetcher.
 */
class BranchyLike : public Workload
{
  public:
    BranchyLike(std::string name, uint64_t seed, size_t board_bytes,
                uint32_t mispredict_percent);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t boardBytes_;
    uint32_t mispredictPercent_;
};

/**
 * perlbench-like bytecode interpreter: opcode fetch (stream), dispatch to
 * one of many handler blocks (code footprint beyond the L1I), hash-table
 * side lookups.
 */
class InterpreterLike : public Workload
{
  public:
    InterpreterLike(std::string name, uint64_t seed, uint32_t num_handlers,
                    size_t bytecode_len, size_t hash_bytes);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    uint32_t numHandlers_;
    size_t bytecodeLen_;
    size_t hashBytes_;
    size_t pos_ = 0;
};

/**
 * bzip2-like: sequential byte processing with a dependent state machine
 * and a histogram; mostly predictable branches, L2-resident tables.
 */
class CompressLike : public Workload
{
  public:
    CompressLike(std::string name, uint64_t seed, size_t input_bytes);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t inputBytes_;
    size_t pos_ = 0;
};

/**
 * gcc-like mixed kernel: small tree walks, a symbol hash, branchy control
 * and a moderate code footprint.
 */
class MixedIntLike : public Workload
{
  public:
    MixedIntLike(std::string name, uint64_t seed, size_t sym_bytes,
                 uint32_t code_blocks);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t symBytes_;
    uint32_t codeBlocks_;
};

/**
 * astar-like grid search: a random focus cell plus fixed-delta neighbour
 * loads (cross associations) and data-dependent direction branches.
 */
class GridNeighborLike : public Workload
{
  public:
    GridNeighborLike(std::string name, uint64_t seed, size_t grid_elems,
                     size_t grid_width);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t gridElems_;
    size_t gridWidth_;
    Addr cur_ = 0;
};

// ---------------------------------------------------------------------
// server.cc - large-code, transaction-style kernels
// ---------------------------------------------------------------------

/**
 * tpcc/tpce/oracle-like OLTP transaction loop: every transaction executes
 * a long sequence of distinct code blocks (code footprint far beyond the
 * L1I), probes a B-tree over a large buffer pool and copies a row. The
 * code misses make these kernels the primary TACT-Code beneficiaries.
 */
class OltpLike : public Workload
{
  public:
    OltpLike(std::string name, uint64_t seed, uint32_t code_blocks,
             uint32_t blocks_per_txn, size_t pool_bytes,
             uint32_t btree_levels);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void run(Emitter &em, Rng &rng) override;

  private:
    uint32_t codeBlocks_;
    uint32_t blocksPerTxn_;
    size_t poolBytes_;
    uint32_t btreeLevels_;
};

/**
 * specjbb-like: object-graph updates (short chases) + allocation
 * streaming + a substantial code footprint.
 */
class JavaServerLike : public Workload
{
  public:
    JavaServerLike(std::string name, uint64_t seed, size_t heap_bytes,
                   uint32_t code_blocks);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t heapBytes_;
    uint32_t codeBlocks_;
    Addr allocPtr_ = 0;
};

/**
 * hadoop-like: streaming record scan with hash-grouped aggregation.
 */
class MapReduceLike : public Workload
{
  public:
    MapReduceLike(std::string name, uint64_t seed, size_t records,
                  size_t groups);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t records_;
    size_t groups_;
    size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// client.cc - interactive-application kernels
// ---------------------------------------------------------------------

/**
 * excel-like formula evaluation: cells reference operand cells through a
 * pointer table (feeder) mixed with strided range scans.
 */
class FormulaDagLike : public Workload
{
  public:
    FormulaDagLike(std::string name, uint64_t seed, size_t cells);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void restart() override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t cells_;
    size_t pos_ = 0;
};

/**
 * browser-like: DOM-ish tree walk, style hash lookups and a moderate
 * code footprint.
 */
class DomWalkLike : public Workload
{
  public:
    DomWalkLike(std::string name, uint64_t seed, size_t nodes,
                uint32_t code_blocks);

  protected:
    void setup(FunctionalMemory &mem, Rng &rng) override;
    void run(Emitter &em, Rng &rng) override;

  private:
    size_t nodes_;
    uint32_t codeBlocks_;
};

} // namespace catchsim

#endif // CATCHSIM_TRACE_KERNELS_KERNELS_HH_

/**
 * @file
 * Incremental, content-hashed store of finished run results.
 *
 * A campaign with a result store attached (--result-store DIR /
 * CATCH_RESULT_STORE) persists every successful run keyed by what
 * actually determines its output: the workload's name and seed, the
 * digest of the full SimConfig serialisation (worker_proto.hh
 * configDigest) and the instruction counts. Re-running after a
 * one-knob config change re-executes only the cells the knob
 * invalidates — every unchanged cell is served from the store
 * byte-identically (SimResult round-trips bitwise, common/json.hh).
 * It is also how a killed or rerun campaign skips its finished cells:
 * failures are never stored, so only they re-execute. Because the key
 * is config *content*, not its name, a store hit survives renames and a
 * same-name knob change misses.
 * The key covers a run's inputs, not the build: a store filled before a
 * code change that moves results replays the old numbers; start afresh.
 *
 * It is the one store that persists. Each key has one record,
 * <dir>/<FNV-1a of the key bytes, hex16>.res, in one checksummed frame
 * (little-endian):
 *
 *   "CRSLT\0" | u32 version (1) | u32 key length | key bytes |
 *   u64 payload length | payload | u64 FNV-1a of everything before it
 *
 * The payload is one JSON object holding the status, attempts and
 * result. A record is written to a temp name unique per process and
 * thread and renamed into place, so a killed campaign never leaves a
 * torn record; the first record written for a key is kept. load()
 * validates in order of trust: size floor, whole-record checksum,
 * magic, version, key echo, payload length, then the payload itself.
 * The key echo guards against a checksum-valid record renamed onto
 * another key's path; a version bump turns stale records into clean
 * misses instead of misparses. find() warns about a record that fails
 * any step, deletes it and misses, so the cell re-executes. Every
 * find() reads the record. The directory is guarded by a flock'd lock
 * file: a second campaign pointed at the same store fails fast with a
 * config error instead of interleaving.
 */

#ifndef CATCHSIM_SIM_RESULT_STORE_HH_
#define CATCHSIM_SIM_RESULT_STORE_HH_

#include <atomic>
#include <memory>
#include <optional>
#include <string>

#include "common/error.hh"
#include "sim/parallel_runner.hh"

namespace catchsim
{

/** Every input that determines one run's bitwise output. */
struct RunKey
{
    std::string workload;
    uint64_t workloadSeed = 0;
    uint64_t configDigest = 0; ///< worker_proto.hh configDigest()
    uint64_t instrs = 0;
    uint64_t warmup = 0;

    /** Canonical key bytes: the four u64 fields above, little-endian,
     *  then the workload name. */
    std::string bytes() const;
};

class ResultStore
{
  public:
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Creates @p dir if needed and takes the exclusive campaign lock
     * (flock on <dir>/lock, non-blocking). A held lock or an
     * unwritable directory is a config SimError.
     */
    static Expected<std::unique_ptr<ResultStore>>
    open(const std::string &dir);

    /**
     * Reads and fully validates @p key's record. A hit arrives with
     * fromStore set, the stored Ok/Retried status and the key's
     * workload; the caller fills the campaign-local config name. An
     * absent record is a config SimError; any defect is a trace-corrupt
     * SimError naming the record path. Thread-safe.
     */
    Expected<RunOutcome> load(const RunKey &key) const;

    /**
     * load() as a lookup: the stored outcome, or nullopt. A defective
     * record warns, is deleted, and misses. Thread-safe.
     */
    std::optional<RunOutcome> find(const RunKey &key);

    /**
     * Persists a successful outcome (asserts out.ok()) unless a record
     * for @p key exists: every writer of a key holds an identical
     * outcome. Write errors warn but never fail the run they record.
     * Thread-safe.
     */
    void put(const RunKey &key, const RunOutcome &out);

    /** The record path @p key maps to. */
    std::string recordPath(const RunKey &key) const;

  private:
    explicit ResultStore(std::string dir);

    Expected<void> write(const RunKey &key, const RunOutcome &out);

    const std::string dir_;
    int lockFd_ = -1;
    std::atomic<uint64_t> tmpSerial_{0}; ///< unique temp-file suffixes
};

} // namespace catchsim

#endif // CATCHSIM_SIM_RESULT_STORE_HH_

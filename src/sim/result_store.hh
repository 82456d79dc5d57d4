/**
 * @file
 * Incremental, content-hashed store of finished run results.
 *
 * A campaign with a result store attached (--result-store DIR /
 * CATCH_RESULT_STORE) persists every successful run keyed by what
 * actually determines its output: the workload's name and seed, the
 * digest of the full SimConfig serialisation (worker_proto.hh
 * configDigest), the instruction counts and the trace-format version.
 * Re-running after a one-knob config change re-executes only the cells
 * the knob invalidates — every unchanged cell is served from the store
 * byte-identically (SimResult round-trips bitwise, common/json.hh).
 * It is also how a killed or rerun campaign skips its finished cells:
 * failures are never stored, so only they re-execute. Because the key
 * is config *content*, not its name, a store hit survives renames and a
 * same-name knob change misses.
 *
 * It is the one store that persists: a RecordDir
 * (common/content_store.hh) holding one checksummed record per key
 * (the payload is one JSON line holding the status, attempts and
 * result), written to a process-unique tmp name and renamed into place
 * — a killed campaign never leaves a torn record. Corrupt or
 * key-mismatched records are deleted and count as misses. Every find()
 * reads the record. The directory is guarded by a flock'd lock file: a
 * second campaign pointed at the same store fails fast with a config
 * error instead of interleaving.
 */

#ifndef CATCHSIM_SIM_RESULT_STORE_HH_
#define CATCHSIM_SIM_RESULT_STORE_HH_

#include <memory>
#include <optional>
#include <string>

#include "common/content_store.hh"
#include "common/error.hh"
#include "sim/parallel_runner.hh"

namespace catchsim
{

/** Everything that determines one run's bitwise output. */
struct RunKey
{
    std::string workload;
    uint64_t workloadSeed = 0;
    uint64_t configDigest = 0; ///< worker_proto.hh configDigest()
    uint64_t instrs = 0;
    uint64_t warmup = 0;

    /**
     * Canonical key bytes: every field plus kTraceFormatVersion, so a
     * trace-format bump invalidates the whole store.
     */
    std::string bytes() const;
};

class ResultStore : private RecordDir
{
  public:
    ~ResultStore() override;

    /**
     * Creates @p dir if needed and takes the exclusive campaign lock
     * (flock on <dir>/lock, non-blocking). A held lock or an
     * unwritable directory is a config SimError.
     */
    static Expected<std::unique_ptr<ResultStore>>
    open(const std::string &dir);

    /**
     * The stored outcome for @p key, or nullopt. A hit arrives with
     * fromStore set and the stored Ok/Retried status; the caller
     * fills the campaign-local config name. Corrupt, truncated or
     * key-mismatched records warn, are deleted, and miss. Thread-safe.
     */
    std::optional<RunOutcome> find(const RunKey &key);

    /**
     * Persists a successful outcome (asserts out.ok()). Write errors
     * warn but never fail the run they record. Thread-safe.
     */
    void put(const RunKey &key, const RunOutcome &out);

    /** The record path @p key maps to (test visibility). */
    std::string recordPath(const RunKey &key) const;

    using RecordDir::stats;

  private:
    explicit ResultStore(const std::string &dir);

    void encode(const void *value,
                std::vector<uint8_t> &out) const override;
    Expected<Value> decode(const uint8_t *payload,
                           size_t n) const override;

    int lockFd_ = -1;
};

} // namespace catchsim

#endif // CATCHSIM_SIM_RESULT_STORE_HH_

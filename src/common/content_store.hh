/**
 * @file
 * ContentStore: the one content-addressed memo store behind the chunk,
 * warmed-state and result stores.
 *
 * Every memo store in the simulator maps a canonical key to an
 * immutable value that is a pure function of that key, so all three
 * share one mechanism, implemented once here:
 *
 *   - a mutex-guarded memory tier: an LRU of shared immutable values
 *     under a byte budget. The charge is sharing-aware: a value reports
 *     the bytes it holds alone plus the parts it may share with other
 *     resident values (copy-on-write memory pages), and each distinct
 *     part is charged once store-wide however many entries hold it;
 *   - an optional disk tier: one record per key in one checksummed
 *     frame, written to a process-unique temp name and renamed into
 *     place, so readers — in any process — only ever see complete
 *     records;
 *   - corruption containment: a record that fails validation is warned
 *     about, deleted and reported as a miss, and the caller re-derives
 *     the value deterministically. Never a crash, never wrong data;
 *   - first-writer-wins publication and the hit/miss/eviction/corrupt
 *     counters.
 *
 * A facade (ChunkStore, WarmStateStore, ResultStore) derives from this
 * class, turns its typed key into canonical key bytes, and supplies the
 * payload codec and the memory charge of its value type.
 *
 * Disk record frame (little-endian):
 *
 *   magic[6] | u32 kind version | u32 key length | key bytes |
 *   u64 payload length | payload | u64 FNV-1a of everything before it
 *
 * Validation runs in that order of trust: size floor, whole-record
 * checksum, magic, version, key echo, payload length, then the facade's
 * payload decoder. The key echo guards against a checksum-valid record
 * renamed onto another key's path; a version bump turns stale records
 * into clean misses instead of misparses.
 */

#ifndef CATCHSIM_COMMON_CONTENT_STORE_HH_
#define CATCHSIM_COMMON_CONTENT_STORE_HH_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hh"
#include "common/fault_inject.hh"

namespace catchsim
{

class ContentStore
{
  public:
    using Value = std::shared_ptr<const void>;
    /** Receives one shareable part of a value: its identity and size. */
    using PartFn = std::function<void(const void *part, size_t bytes)>;

    /** The fixed description of one kind of record. */
    struct Format
    {
        char magic[6];           ///< first six bytes of every record
        uint32_t version;        ///< kind version, checked on load
        const char *extension;   ///< record file suffix, e.g. ".ctc"
        const char *noun;        ///< names the kind in messages
        FaultKind faultKind;     ///< injected into every disk read when
        const char *faultTarget; ///< the plan targets this name
    };

    struct Config
    {
        /** Memory-tier budget over the sharing-aware charge; 0 disables
         *  the memory tier. Least-recently-used values are evicted past
         *  it, never below one resident value. */
        size_t memBudgetBytes = 0;
        /** Disk-tier directory; empty disables the disk tier. */
        std::string diskDir;
        /** Fault-injection plan for disk reads; null disables it. */
        const FaultPlan *plan = nullptr;
    };

    /** Monotonic counters; a snapshot is taken under the store lock. */
    struct Stats
    {
        uint64_t hits = 0;      ///< find() served from memory or disk
        uint64_t misses = 0;    ///< find() found nothing servable
        uint64_t diskHits = 0;  ///< subset of hits loaded from disk
        uint64_t evictions = 0; ///< values dropped by the LRU budget
        uint64_t corrupt = 0;   ///< disk records rejected by validation
        uint64_t puts = 0;      ///< values published (deduplicated)
    };

    ContentStore(const Format &fmt, Config cfg);
    virtual ~ContentStore();

    ContentStore(const ContentStore &) = delete;
    ContentStore &operator=(const ContentStore &) = delete;

    /**
     * Looks @p key up in the memory tier, then the disk tier. A disk
     * record that fails validation counts as corrupt, is deleted, and
     * the call reports a miss (null). @p fault_target names a second
     * injection target for this read only. Thread-safe.
     */
    Value find(const std::string &key, const char *fault_target = nullptr);

    /**
     * Publishes @p value under @p key and writes it through to the disk
     * tier. First writer wins: every writer of a key holds an identical
     * value, so a racing publication returns the resident one. Thread-
     * safe.
     */
    Value put(const std::string &key, Value value);

    /** Drops @p key from both tiers. */
    void remove(const std::string &key);

    /**
     * Reads and fully validates @p key's disk record. An absent file is
     * a config error (plain miss); any content defect is a trace-corrupt
     * SimError naming the record path. find() is the production path;
     * this one exposes the error taxonomy to tests.
     */
    Expected<Value> loadDiskChecked(const std::string &key,
                                    const char *fault_target = nullptr);

    /** Disk path @p key maps to (valid only with a disk tier). */
    std::string diskPath(const std::string &key) const;

    Stats stats() const;
    /** Memory-tier charge: own bytes plus each distinct part once. */
    size_t residentBytes() const;
    /** Effective disk dir; empty when disabled (also after a failed
     *  create — the store degrades to the memory tier). */
    const std::string &diskDir() const { return cfg_.diskDir; }

    /**
     * Fills @p cfg for a process-wide store of one kind from the
     * environment and returns whether stores are enabled at all.
     * CATCH_STORE=1 enables the memory tiers; CATCH_STORE_DIR=DIR
     * enables them too and adds a disk tier under DIR/@p subdir;
     * CATCH_STORE_MB (default 384) is the memory budget all kinds
     * share, of which this kind gets @p num / @p den. Follows the
     * env.hh startup contract.
     */
    static bool configureFromEnv(Config &cfg, const char *subdir,
                                 uint64_t num, uint64_t den);

  protected:
    /** Appends @p value's payload bytes to @p out. */
    virtual void encode(const void *value,
                        std::vector<uint8_t> &out) const = 0;

    /** Parses a payload whose frame validated; a malformed payload is
     *  a trace-corrupt SimError describing the defect. */
    virtual Expected<Value> decode(const uint8_t *payload,
                                   size_t n) const = 0;

    /**
     * Memory charge of @p value: returns the bytes it holds alone and
     * reports every part other resident values may share through
     * @p shared. Kinds without a memory tier never reach it.
     */
    virtual size_t
    charge(const void *, const PartFn &) const
    {
        return 0;
    }

  private:
    struct Entry
    {
        std::string key;
        Value value;
    };

    void insertLocked(const std::string &key, const Value &value);
    void eraseLocked(std::list<Entry>::iterator it);
    void evictOverBudgetLocked();
    Expected<void> writeDisk(const std::string &key, const void *value);

    Format fmt_;
    Config cfg_;

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> map_;
    /** Store-wide reference counts of resident shared parts. */
    std::unordered_map<const void *, uint64_t> partRefs_;
    size_t residentBytes_ = 0;
    Stats stats_;
    std::atomic<uint64_t> tmpSerial_{0}; ///< unique tmp-file suffixes
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_CONTENT_STORE_HH_

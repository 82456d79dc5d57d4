/**
 * @file
 * The two content-addressed store primitives: a sharing-aware memory
 * LRU behind the three memo stores, and a checksummed record directory
 * behind the result store. They share no logic; each store uses one.
 *
 * MemoLru (ChunkStore, WarmStateStore, KernelImageStore). Every memo
 * store maps a canonical key to an immutable value that is a pure
 * function of that key, so a value is never persisted: a process
 * re-derives it on a miss, and a store can only ever save time, never
 * change a result. The LRU holds shared immutable values under a byte
 * budget, publishes first-writer-wins and counts hits, misses,
 * evictions and puts. The charge is sharing-aware: a value reports the
 * bytes it holds alone plus the parts it may share with other resident
 * values (memory image layers), and each distinct part is charged once
 * store-wide however many entries hold it.
 *
 * RecordDir (ResultStore). One record per key in one checksummed
 * frame, written to a process-unique temp name and renamed into place,
 * so readers — in any process — only ever see complete records. A
 * record that fails validation is warned about, deleted and reported
 * as a miss, and the caller re-derives the value. Never a crash, never
 * wrong data. A facade supplies the payload codec.
 *
 * Record frame (little-endian):
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

namespace catchsim
{

/** A mutex-guarded LRU of shared immutable values under a byte budget. */
class MemoLru
{
  public:
    using Value = std::shared_ptr<const void>;
    /** Receives one shareable part of a value: its identity and size. */
    using PartFn = std::function<void(const void *part, size_t bytes)>;

    /** Monotonic counters; a snapshot is taken under the store lock. */
    struct Stats
    {
        uint64_t hits = 0;      ///< find() served a resident value
        uint64_t misses = 0;    ///< find() found nothing
        uint64_t evictions = 0; ///< values dropped by the budget
        uint64_t puts = 0;      ///< values published (deduplicated)
    };

    /** Least-recently-used values are evicted past @p budget_bytes of
     *  sharing-aware charge, never below one resident value. */
    explicit MemoLru(size_t budget_bytes);
    virtual ~MemoLru();

    MemoLru(const MemoLru &) = delete;
    MemoLru &operator=(const MemoLru &) = delete;

    /** The resident value for @p key, or null. Thread-safe. */
    Value find(const std::string &key);

    /**
     * Publishes @p value under @p key. First writer wins: every writer
     * of a key holds an identical value, so a racing publication
     * returns the resident one. Thread-safe.
     */
    Value put(const std::string &key, Value value);

    /** Drops @p key if resident. */
    void remove(const std::string &key);

    Stats stats() const;
    /** Charge of the resident values: own bytes plus each distinct
     *  part once. */
    size_t residentBytes() const;

  protected:
    /**
     * Memory charge of @p value: returns the bytes it holds alone and
     * reports every part other resident values may share through
     * @p shared.
     */
    virtual size_t charge(const void *value,
                          const PartFn &shared) const = 0;

  private:
    struct Entry
    {
        std::string key;
        Value value;
    };

    void insertLocked(const std::string &key, const Value &value);
    void eraseLocked(std::list<Entry>::iterator it);
    void evictOverBudgetLocked();

    const size_t budgetBytes_;

    mutable std::mutex mu_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<std::string, std::list<Entry>::iterator> map_;
    /** Store-wide reference counts of resident shared parts. */
    std::unordered_map<const void *, uint64_t> partRefs_;
    size_t residentBytes_ = 0;
    Stats stats_;
};

/** A directory of checksummed records, one per key. */
class RecordDir
{
  public:
    using Value = std::shared_ptr<const void>;

    /** The fixed description of one kind of record. */
    struct Format
    {
        char magic[6];         ///< first six bytes of every record
        uint32_t version;      ///< kind version, checked on load
        const char *extension; ///< record file suffix, e.g. ".res"
        const char *noun;      ///< names the kind in messages
    };

    /** Monotonic counters; a snapshot is taken under the store lock. */
    struct Stats
    {
        uint64_t hits = 0;    ///< find() loaded a valid record
        uint64_t misses = 0;  ///< find() found nothing servable
        uint64_t corrupt = 0; ///< records rejected by validation
        uint64_t puts = 0;    ///< values handed to put()
    };

    /** Records live in @p dir, which the owner creates. */
    RecordDir(const Format &fmt, std::string dir);
    virtual ~RecordDir();

    RecordDir(const RecordDir &) = delete;
    RecordDir &operator=(const RecordDir &) = delete;

    /**
     * Loads @p key's record. A record that fails validation counts as
     * corrupt, is deleted, and the call reports a miss (null).
     * Thread-safe, and safe against writers in other processes.
     */
    Value find(const std::string &key);

    /**
     * Writes @p value's record unless one already exists: every writer
     * of a key holds an identical value. A write error warns and
     * leaves the slot empty. Thread-safe.
     */
    void put(const std::string &key, const void *value);

    /**
     * Reads and fully validates @p key's record. An absent file is a
     * config error (plain miss); any content defect is a trace-corrupt
     * SimError naming the record path. find() is the production path;
     * this one exposes the error taxonomy to tests.
     */
    Expected<Value> loadChecked(const std::string &key);

    /** The record path @p key maps to. */
    std::string recordPath(const std::string &key) const;

    Stats stats() const;

  protected:
    /** Appends @p value's payload bytes to @p out. */
    virtual void encode(const void *value,
                        std::vector<uint8_t> &out) const = 0;

    /** Parses a payload whose frame validated; a malformed payload is
     *  a trace-corrupt SimError describing the defect. */
    virtual Expected<Value> decode(const uint8_t *payload,
                                   size_t n) const = 0;

  private:
    Expected<void> write(const std::string &key, const void *value);

    const Format fmt_;
    const std::string dir_;

    mutable std::mutex mu_; ///< guards stats_
    Stats stats_;
    std::atomic<uint64_t> tmpSerial_{0}; ///< unique tmp-file suffixes
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_CONTENT_STORE_HH_

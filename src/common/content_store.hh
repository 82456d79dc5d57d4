/**
 * @file
 * MemoLru, the sharing-aware memory LRU behind the three memo stores
 * (ChunkStore, WarmStateStore, KernelImageStore).
 *
 * Every memo store maps a canonical key to an immutable value that is
 * a pure function of that key, so a value is never persisted: a
 * process re-derives it on a miss, and a store can only ever save
 * time, never change a result. The LRU holds shared immutable values
 * under a byte budget, publishes first-writer-wins and counts hits,
 * misses, evictions and puts. The charge is sharing-aware: a value
 * reports the bytes it holds alone plus the parts it may share with
 * other resident values (memory image layers), and each distinct part
 * is charged once store-wide however many entries hold it.
 */

#ifndef CATCHSIM_COMMON_CONTENT_STORE_HH_
#define CATCHSIM_COMMON_CONTENT_STORE_HH_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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

} // namespace catchsim

#endif // CATCHSIM_COMMON_CONTENT_STORE_HH_

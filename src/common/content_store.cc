#include "common/content_store.hh"

#include <iterator>

#include "common/logging.hh"

namespace catchsim
{

MemoLru::MemoLru(size_t budget_bytes) : budgetBytes_(budget_bytes) {}

MemoLru::~MemoLru() = default;

MemoLru::Value
MemoLru::find(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->value;
}

MemoLru::Value
MemoLru::put(const std::string &key, Value value)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // First writer wins; every writer holds identical bytes.
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->value;
    }
    insertLocked(key, value);
    evictOverBudgetLocked();
    ++stats_.puts;
    return value;
}

void
MemoLru::remove(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end())
        eraseLocked(it->second);
}

void
MemoLru::insertLocked(const std::string &key, const Value &value)
{
    lru_.push_front(Entry{key, value});
    map_[key] = lru_.begin();
    const size_t own = charge(value.get(), [this](const void *part,
                                                  size_t bytes) {
        if (++partRefs_[part] == 1)
            residentBytes_ += bytes;
    });
    residentBytes_ += own;
}

void
MemoLru::eraseLocked(std::list<Entry>::iterator it)
{
    const size_t own = charge(it->value.get(), [this](const void *part,
                                                      size_t bytes) {
        auto ref = partRefs_.find(part);
        CATCHSIM_ASSERT(ref != partRefs_.end(),
                        "releasing a part the store never charged");
        if (--ref->second == 0) {
            partRefs_.erase(ref);
            residentBytes_ -= bytes;
        }
    });
    residentBytes_ -= own;
    map_.erase(it->key);
    lru_.erase(it);
}

void
MemoLru::evictOverBudgetLocked()
{
    // Never evict below one resident value: the entry just inserted
    // must survive long enough to be returned to its requester.
    while (residentBytes_ > budgetBytes_ && lru_.size() > 1) {
        eraseLocked(std::prev(lru_.end()));
        ++stats_.evictions;
    }
}

MemoLru::Stats
MemoLru::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
MemoLru::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return residentBytes_;
}

} // namespace catchsim

#include "common/content_store.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/bitutil.hh"
#include "common/logging.hh"

#include <unistd.h>

namespace catchsim
{

// --- MemoLru -----------------------------------------------------------

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

// --- RecordDir ---------------------------------------------------------

namespace
{

// Frame bytes before the key: magic, u32 version, u32 key length.
constexpr uint64_t kFrameHeadBytes = 6 + 4 + 4;

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

RecordDir::RecordDir(const Format &fmt, std::string dir)
    : fmt_(fmt), dir_(std::move(dir))
{
}

RecordDir::~RecordDir() = default;

std::string
RecordDir::recordPath(const std::string &key) const
{
    char name[17];
    std::snprintf(name, sizeof(name), "%016" PRIx64,
                  fnv1a(key.data(), key.size()));
    return dir_ + '/' + name + fmt_.extension;
}

RecordDir::Value
RecordDir::find(const std::string &key)
{
    auto loaded = loadChecked(key);
    if (loaded.ok()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.hits;
        return std::move(loaded).value();
    }
    const bool corrupt =
        loaded.error().category == ErrorCategory::TraceCorrupt;
    if (corrupt) {
        // Contain, don't crash: drop the bad record so the slot is
        // rewritten from a re-derived (canonical) value, and report a
        // miss — the caller re-derives deterministically.
        warn(loaded.error().message, " — dropping the record");
        std::remove(recordPath(key).c_str());
    }
    std::lock_guard<std::mutex> lock(mu_);
    stats_.corrupt += corrupt;
    ++stats_.misses;
    return nullptr;
}

void
RecordDir::put(const std::string &key, const void *value)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.puts;
    }
    auto w = write(key, value);
    if (!w.ok())
        warn(w.error().message, " — record skipped");
}

Expected<void>
RecordDir::write(const std::string &key, const void *value)
{
    const std::string path = recordPath(key);
    {
        // Already persisted (by an earlier run or another worker racing
        // on the same key): the bytes are canonical, keep them.
        FilePtr probe(std::fopen(path.c_str(), "rb"));
        if (probe)
            return {};
    }
    const size_t head = kFrameHeadBytes + key.size() + 8;
    std::vector<uint8_t> out(head);
    std::memcpy(out.data(), fmt_.magic, sizeof(fmt_.magic));
    std::memcpy(out.data() + 6, &fmt_.version, 4);
    const uint32_t key_len = static_cast<uint32_t>(key.size());
    std::memcpy(out.data() + 10, &key_len, 4);
    std::memcpy(out.data() + kFrameHeadBytes, key.data(), key.size());
    encode(value, out);
    const uint64_t payload_len = out.size() - head;
    std::memcpy(out.data() + head - 8, &payload_len, 8);
    const uint64_t sum = fnv1a(out.data(), out.size());

    // Write to a temp name unique across processes (pid) and threads
    // (serial), then rename: readers only ever see complete,
    // checksummed records, even with concurrent writers sharing the
    // directory.
    const std::string tmp =
        path + ".tmp" + std::to_string(::getpid()) + '.' +
        std::to_string(tmpSerial_.fetch_add(1, std::memory_order_relaxed));
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f)
        return simError(ErrorCategory::IoTransient, fmt_.noun,
                        " store: cannot open '", tmp, "' for writing");
    if (std::fwrite(out.data(), 1, out.size(), f.get()) != out.size() ||
        std::fwrite(&sum, 1, 8, f.get()) != 8 ||
        std::fflush(f.get()) != 0) {
        f.reset();
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient, fmt_.noun,
                        " store: write to '", tmp, "' failed");
    }
    f.reset();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient, fmt_.noun,
                        " store: cannot rename '", tmp, "' to '", path,
                        "'");
    }
    return {};
}

Expected<RecordDir::Value>
RecordDir::loadChecked(const std::string &key)
{
    const std::string path = recordPath(key);
    auto corrupt = [&](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, fmt_.noun, " file '",
                        path, "': ", what...);
    };
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return simError(ErrorCategory::Config, "no ", fmt_.noun,
                        " file '", path, "'");
    const long told =
        std::fseek(f.get(), 0, SEEK_END) == 0 ? std::ftell(f.get()) : -1;
    if (told < 0)
        return simError(ErrorCategory::IoTransient, "cannot size '", path,
                        "'");
    // The payload length varies, so only a floor is known before the
    // frame is read; the checksum covers every byte before any field
    // is trusted.
    const uint64_t head = kFrameHeadBytes + key.size() + 8;
    if (static_cast<uint64_t>(told) < head + 8)
        return corrupt(told, " bytes on disk, expected at least ",
                       head + 8, " (truncated or foreign record)");
    std::rewind(f.get());
    std::vector<uint8_t> buf(static_cast<uint64_t>(told));
    if (std::fread(buf.data(), 1, buf.size(), f.get()) != buf.size())
        return corrupt("short read of ", buf.size(), " bytes");

    uint64_t sum = 0;
    std::memcpy(&sum, buf.data() + buf.size() - 8, 8);
    if (fnv1a(buf.data(), buf.size() - 8) != sum)
        return corrupt("FNV-1a checksum mismatch (bit flip?)");
    if (std::memcmp(buf.data(), fmt_.magic, sizeof(fmt_.magic)) != 0)
        return corrupt("bad magic");
    uint32_t version = 0;
    std::memcpy(&version, buf.data() + 6, 4);
    if (version != fmt_.version)
        return corrupt("unsupported version ", version, ", expected ",
                       fmt_.version);
    uint32_t key_len = 0;
    std::memcpy(&key_len, buf.data() + 10, 4);
    if (key_len != key.size() ||
        std::memcmp(buf.data() + kFrameHeadBytes, key.data(),
                    key.size()) != 0)
        return corrupt("header does not match the requested key");
    uint64_t payload_len = 0;
    std::memcpy(&payload_len, buf.data() + head - 8, 8);
    if (payload_len != buf.size() - head - 8)
        return corrupt("payload length ", payload_len,
                       " disagrees with the record size");
    auto v = decode(buf.data() + head, payload_len);
    if (!v.ok())
        return corrupt(v.error().message);
    return v;
}

RecordDir::Stats
RecordDir::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace catchsim

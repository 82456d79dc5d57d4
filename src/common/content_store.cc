#include "common/content_store.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/bitutil.hh"
#include "common/env.hh"
#include "common/logging.hh"

#include <unistd.h>

namespace catchsim
{

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

ContentStore::ContentStore(const Format &fmt, Config cfg)
    : fmt_(fmt), cfg_(std::move(cfg))
{
    if (!cfg_.diskDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg_.diskDir, ec);
        if (ec) {
            warn(fmt_.noun, " store: cannot create cache dir '",
                 cfg_.diskDir, "': ", ec.message(),
                 " — disk tier disabled");
            cfg_.diskDir.clear();
        }
    }
}

ContentStore::~ContentStore() = default;

std::string
ContentStore::diskPath(const std::string &key) const
{
    char name[17];
    std::snprintf(name, sizeof(name), "%016" PRIx64,
                  fnv1a(key.data(), key.size()));
    return cfg_.diskDir + '/' + name + fmt_.extension;
}

ContentStore::Value
ContentStore::find(const std::string &key)
{
    if (cfg_.memBudgetBytes) {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++stats_.hits;
            return it->second->value;
        }
    }
    if (!cfg_.diskDir.empty()) {
        auto loaded = loadDiskChecked(key);
        if (loaded.ok()) {
            Value v = std::move(loaded).value();
            std::lock_guard<std::mutex> lock(mu_);
            if (cfg_.memBudgetBytes) {
                auto it = map_.find(key);
                if (it != map_.end()) {
                    // A writer published while we read the file; serve
                    // the resident copy (the bytes are identical).
                    lru_.splice(lru_.begin(), lru_, it->second);
                    v = it->second->value;
                } else {
                    insertLocked(key, v);
                    evictOverBudgetLocked();
                }
            }
            ++stats_.hits;
            ++stats_.diskHits;
            return v;
        }
        if (loaded.error().category == ErrorCategory::TraceCorrupt) {
            // Contain, don't crash: drop the bad record so the slot is
            // rewritten from a re-derived (canonical) value, and report
            // a miss — the caller re-derives deterministically.
            warn(loaded.error().message, " — dropping the record");
            std::remove(diskPath(key).c_str());
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.corrupt;
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return nullptr;
}

ContentStore::Value
ContentStore::put(const std::string &key, Value value)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (cfg_.memBudgetBytes) {
            auto it = map_.find(key);
            if (it != map_.end()) {
                // First writer wins; every writer holds identical bytes.
                lru_.splice(lru_.begin(), lru_, it->second);
                return it->second->value;
            }
            insertLocked(key, value);
            evictOverBudgetLocked();
        }
        ++stats_.puts;
    }
    if (!cfg_.diskDir.empty()) {
        auto w = writeDisk(key, value.get());
        if (!w.ok())
            warn(w.error().message, " — disk tier skipped for this record");
    }
    return value;
}

void
ContentStore::remove(const std::string &key)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end())
            eraseLocked(it->second);
    }
    if (!cfg_.diskDir.empty())
        std::remove(diskPath(key).c_str());
}

void
ContentStore::insertLocked(const std::string &key, const Value &value)
{
    lru_.push_front(Entry{key, value}); // catch-lint: allow(step-alloc) once per published value, not per cycle
    map_[key] = lru_.begin();
    const size_t own = charge(value.get(), [this](const void *part,
                                                  size_t bytes) {
        if (++partRefs_[part] == 1)
            residentBytes_ += bytes;
    });
    residentBytes_ += own;
}

void
ContentStore::eraseLocked(std::list<Entry>::iterator it)
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
ContentStore::evictOverBudgetLocked()
{
    // Never evict below one resident value: the entry just inserted
    // must survive long enough to be returned to its requester.
    while (residentBytes_ > cfg_.memBudgetBytes && lru_.size() > 1) {
        eraseLocked(std::prev(lru_.end()));
        ++stats_.evictions;
    }
}

Expected<void>
ContentStore::writeDisk(const std::string &key, const void *value)
{
    const std::string path = diskPath(key);
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

Expected<ContentStore::Value>
ContentStore::loadDiskChecked(const std::string &key)
{
    const std::string path = diskPath(key);
    auto corrupt = [&](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, fmt_.noun, " file '",
                        path, "': ", what...);
    };
    // Deterministic fault injection: the kind's reserved target
    // corrupts disk reads so CI can drive the containment path without
    // manufacturing real bit flips.
    if (cfg_.plan && fmt_.faultTarget &&
        cfg_.plan->shouldInject(fmt_.faultKind, fmt_.faultTarget))
        return corrupt("injected ", fmt_.faultTarget, " corruption");

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

ContentStore::Stats
ContentStore::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

size_t
ContentStore::residentBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return residentBytes_;
}

bool
ContentStore::configureFromEnv(Config &cfg, const char *subdir,
                               uint64_t num, uint64_t den)
{
    const std::string dir = envString("CATCH_STORE_DIR");
    if (!envFlag("CATCH_STORE") && dir.empty())
        return false;
    cfg.memBudgetBytes = (envU64("CATCH_STORE_MB", 384) << 20) * num / den;
    cfg.diskDir = dir.empty() ? dir : dir + '/' + subdir;
    cfg.plan = &FaultPlan::global();
    return true;
}

} // namespace catchsim

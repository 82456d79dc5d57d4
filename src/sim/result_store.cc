#include "sim/result_store.hh"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "common/bitutil.hh"
#include "common/json.hh"
#include "common/logging.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace catchsim
{

namespace
{

constexpr char kMagic[6] = {'C', 'R', 'S', 'L', 'T', '\0'};
constexpr uint32_t kVersion = 1;
/** Frame bytes before the key: magic, u32 version, u32 key length. */
constexpr size_t kHeadBytes = sizeof(kMagic) + 4 + 4;

/** Appends the low @p n bytes of @p v, least significant first. */
void
putLe(std::string &out, uint64_t v, int n)
{
    for (int i = 0; i < n; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Reads @p n little-endian bytes at @p p. */
uint64_t
getLe(const char *p, int n)
{
    uint64_t v = 0;
    for (int i = n - 1; i >= 0; --i)
        v = v << 8 | static_cast<uint8_t>(p[i]);
    return v;
}

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

std::string
RunKey::bytes() const
{
    std::string out;
    for (uint64_t v : {workloadSeed, configDigest, instrs, warmup})
        putLe(out, v, 8);
    return out + workload;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {}

ResultStore::~ResultStore()
{
    if (lockFd_ >= 0)
        ::close(lockFd_); // releases the flock
}

Expected<std::unique_ptr<ResultStore>>
ResultStore::open(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return simError(ErrorCategory::Config, "cannot create result-"
                        "store directory '", dir, "': ", ec.message());

    // make_unique cannot reach the private ctor.
    std::unique_ptr<ResultStore> s(new ResultStore(dir)); // catch-analyze: allow(raw-new-delete)

    std::string lock_path = dir + "/lock";
    s->lockFd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                        0644);
    if (s->lockFd_ < 0)
        return simError(ErrorCategory::Config, "cannot open result-"
                        "store lock '", lock_path, "' (errno ", errno,
                        ")");
    if (::flock(s->lockFd_, LOCK_EX | LOCK_NB) != 0)
        return simError(ErrorCategory::Config, "result store '", dir,
                        "' is locked by another campaign");
    return s;
}

std::string
ResultStore::recordPath(const RunKey &key) const
{
    const std::string k = key.bytes();
    char name[17];
    std::snprintf(name, sizeof(name), "%016" PRIx64,
                  fnv1a(k.data(), k.size()));
    return dir_ + '/' + name + ".res";
}

Expected<RunOutcome>
ResultStore::load(const RunKey &key) const
{
    const std::string path = recordPath(key);
    auto corrupt = [&](auto &&...what) {
        return simError(ErrorCategory::TraceCorrupt, "result file '",
                        path, "': ", what...);
    };
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return simError(ErrorCategory::Config, "no result file '", path,
                        "'");
    const long told =
        std::fseek(f.get(), 0, SEEK_END) == 0 ? std::ftell(f.get()) : -1;
    if (told < 0)
        return simError(ErrorCategory::IoTransient, "cannot size '", path,
                        "'");
    // The payload length varies, so only a floor is known before the
    // frame is read; the checksum covers every byte before any field
    // is trusted.
    const std::string k = key.bytes();
    const size_t head = kHeadBytes + k.size() + 8;
    if (static_cast<uint64_t>(told) < head + 8)
        return corrupt(told, " bytes on disk, expected at least ",
                       head + 8, " (truncated or foreign record)");
    std::rewind(f.get());
    std::string buf(static_cast<size_t>(told), '\0');
    if (std::fread(buf.data(), 1, buf.size(), f.get()) != buf.size())
        return corrupt("short read of ", buf.size(), " bytes");

    const size_t body = buf.size() - 8;
    if (fnv1a(buf.data(), body) != getLe(buf.data() + body, 8))
        return corrupt("FNV-1a checksum mismatch (bit flip?)");
    if (buf.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
        return corrupt("bad magic");
    const uint64_t version = getLe(buf.data() + 6, 4);
    if (version != kVersion)
        return corrupt("unsupported version ", version, ", expected ",
                       kVersion);
    if (getLe(buf.data() + 10, 4) != k.size() ||
        buf.compare(kHeadBytes, k.size(), k) != 0)
        return corrupt("header does not match the requested key");
    const uint64_t payload_len = getLe(buf.data() + head - 8, 8);
    if (payload_len != body - head)
        return corrupt("payload length ", payload_len,
                       " disagrees with the record size");

    // Anything that could not be replayed as a successful run is a
    // defect: find() drops the record and the cell re-executes.
    auto parsed = parseJson(buf.substr(head, payload_len));
    if (!parsed.ok())
        return corrupt("unparsable record");
    std::optional<SimError> err;
    RunOutcome out;
    readOutcomeBody(JsonReader(&parsed.value(), err,
                               ErrorCategory::TraceCorrupt,
                               "result-store record"),
                    out);
    if (err)
        return corrupt(err->message);
    if (!out.ok())
        return corrupt("record with a non-success status");
    out.fromStore = true;
    out.workload = key.workload;
    return out;
}

std::optional<RunOutcome>
ResultStore::find(const RunKey &key)
{
    auto loaded = load(key);
    if (loaded.ok())
        return std::move(loaded).value();
    if (loaded.error().category == ErrorCategory::TraceCorrupt) {
        // Contain, don't crash: drop the bad record so the slot is
        // rewritten by the re-executed run, and miss.
        warn(loaded.error().message, " — dropping the record");
        std::remove(recordPath(key).c_str());
    }
    return std::nullopt;
}

void
ResultStore::put(const RunKey &key, const RunOutcome &out)
{
    CATCHSIM_ASSERT(out.ok(), "only successful outcomes are stored");
    auto w = write(key, out);
    if (!w.ok())
        warn(w.error().message, " — record skipped");
}

Expected<void>
ResultStore::write(const RunKey &key, const RunOutcome &out)
{
    const std::string path = recordPath(key);
    std::error_code ec;
    if (std::filesystem::exists(path, ec))
        return {}; // first writer wins: every writer's bytes are equal

    // The record holds status, attempts and result only: a host profile
    // is wall-clock data of the storing run, not of a later replay.
    RunOutcome rec = out;
    rec.profile.reset();
    JsonWriter w;
    w.open();
    writeOutcomeBody(w, rec);
    w.close();
    const std::string k = key.bytes();
    std::string bytes(kMagic, sizeof(kMagic));
    putLe(bytes, kVersion, 4);
    putLe(bytes, k.size(), 4);
    bytes += k;
    putLe(bytes, w.str().size(), 8);
    bytes += w.str();
    putLe(bytes, fnv1a(bytes.data(), bytes.size()), 8);

    // Write to a temp name unique across processes (pid) and threads
    // (serial), then rename: readers only ever see complete,
    // checksummed records.
    const std::string tmp =
        path + ".tmp" + std::to_string(::getpid()) + '.' +
        std::to_string(tmpSerial_.fetch_add(1, std::memory_order_relaxed));
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f)
        return simError(ErrorCategory::IoTransient, "result store: "
                        "cannot open '", tmp, "' for writing");
    if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) !=
            bytes.size() ||
        std::fflush(f.get()) != 0) {
        f.reset();
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient, "result store: "
                        "write to '", tmp, "' failed");
    }
    f.reset();
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return simError(ErrorCategory::IoTransient, "result store: "
                        "cannot rename '", tmp, "' to '", path, "'");
    }
    return {};
}

} // namespace catchsim

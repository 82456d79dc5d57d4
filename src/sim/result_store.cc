#include "sim/result_store.hh"

#include <filesystem>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/state_io.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace catchsim
{

namespace
{

const RecordDir::Format kResultFormat = {
    {'C', 'R', 'S', 'L', 'T', '\0'}, 1, ".res", "result"};

} // namespace

std::string
RunKey::bytes() const
{
    StateSink s;
    for (uint64_t v : {workloadSeed, configDigest, instrs, warmup})
        s.u64(v);
    return s.take() + workload;
}

ResultStore::ResultStore(const std::string &dir)
    : RecordDir(kResultFormat, dir)
{
}

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
    return RecordDir::recordPath(key.bytes());
}

std::optional<RunOutcome>
ResultStore::find(const RunKey &key)
{
    auto hit = std::static_pointer_cast<const RunOutcome>(
        RecordDir::find(key.bytes()));
    if (!hit)
        return std::nullopt;
    RunOutcome out = *hit;
    out.workload = key.workload;
    return out;
}

void
ResultStore::put(const RunKey &key, const RunOutcome &out)
{
    CATCHSIM_ASSERT(out.ok(), "only successful outcomes are stored");
    // The record holds status, attempts and result only: a host profile
    // is wall-clock data of the storing run, not of a later replay.
    RunOutcome rec = out;
    rec.profile.reset();
    RecordDir::put(key.bytes(), &rec);
}

void
ResultStore::encode(const void *value, std::vector<uint8_t> &out) const
{
    JsonWriter w;
    w.open();
    writeOutcomeBody(w, *static_cast<const RunOutcome *>(value));
    w.close();
    out.insert(out.end(), w.str().begin(), w.str().end());
}

Expected<RecordDir::Value>
ResultStore::decode(const uint8_t *payload, size_t n) const
{
    // Anything that could not be replayed as a successful run is a
    // defect: the record is dropped and the cell re-executes.
    auto parsed =
        parseJson(std::string(reinterpret_cast<const char *>(payload), n));
    if (!parsed.ok())
        return simError(ErrorCategory::TraceCorrupt, "unparsable record");
    std::optional<SimError> err;
    auto out = std::make_shared<RunOutcome>();
    readOutcomeBody(JsonReader(&parsed.value(), err,
                               ErrorCategory::TraceCorrupt,
                               "result-store record"),
                    *out);
    if (err)
        return *err;
    if (!out->ok())
        return simError(ErrorCategory::TraceCorrupt,
                        "record with a non-success status");
    out->fromStore = true;
    return Value(std::move(out));
}

} // namespace catchsim

/**
 * @file
 * Helpers shared by the store tests: scratch directories, whole-file
 * reads and rewrites, record surgery that keeps a result-store frame
 * valid (payload length and trailing FNV-1a recomputed) so a test
 * reaches exactly the validation step it targets, and the
 * campaign-equivalence matrix every memo store must pass. The frame
 * layout is documented in sim/result_store.hh.
 */

#ifndef CATCHSIM_TESTS_STORE_TEST_UTIL_HH_
#define CATCHSIM_TESTS_STORE_TEST_UTIL_HH_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "sim/parallel_runner.hh"
#include "sim_result_compare.hh"

namespace catchsim
{

inline std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

inline std::vector<char>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return {};
    std::fseek(f, 0, SEEK_END);
    std::vector<char> bytes(static_cast<size_t>(std::ftell(f)));
    std::rewind(f);
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
}

inline void
rewriteFile(const std::string &path, const std::vector<char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

/** Recomputes a record's trailing checksum after an in-place edit. */
inline void
resealRecord(std::vector<char> &bytes)
{
    const uint64_t sum = fnv1a(bytes.data(), bytes.size() - 8);
    std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
}

/** Byte offset of a record's payload (after magic, version, key length,
 *  key bytes and payload length). */
inline size_t
payloadOffset(const std::vector<char> &bytes)
{
    uint32_t key_len = 0;
    std::memcpy(&key_len, bytes.data() + 10, 4);
    return 6 + 4 + 4 + key_len + 8;
}

/**
 * Rewrites @p path's payload through @p edit — which may resize it —
 * keeping the frame valid, so only the payload parser can reject the
 * result.
 */
inline void
editPayload(const std::string &path,
            const std::function<void(std::vector<char> &)> &edit)
{
    std::vector<char> bytes = readAll(path);
    const size_t at = payloadOffset(bytes);
    std::vector<char> payload(bytes.begin() + static_cast<ptrdiff_t>(at),
                              bytes.end() - 8);
    edit(payload);
    bytes.resize(at);
    const uint64_t len = payload.size();
    std::memcpy(bytes.data() + at - 8, &len, 8);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    bytes.resize(bytes.size() + 8);
    resealRecord(bytes);
    rewriteFile(path, bytes);
}

/** Fault-free campaign options over explicit stores (null = off), so
 *  tests permute store states without touching the environment. */
inline IsolationOptions
optsWithStores(ChunkStore *chunks, WarmStateStore *warm = nullptr)
{
    static const FaultPlan no_faults;
    IsolationOptions opts;
    opts.plan = &no_faults;
    opts.backoffMs = 0;
    opts.store = chunks;
    opts.warmStore = warm;
    return opts;
}

/** Campaign workloads spanning every suite category. */
inline std::vector<std::string>
campaignNames()
{
    return {"mcf", "omnetpp", "hmmer", "hplinpack", "tpcc", "gobmk"};
}

/** FNV-1a golden over a whole campaign's serialized results. */
inline uint64_t
campaignHash(const std::vector<RunOutcome> &outcomes)
{
    uint64_t h = 1469598103934665603ULL;
    for (const auto &o : outcomes) {
        EXPECT_TRUE(o.ok()) << o.workload;
        const std::string json = o.result.toJson();
        h = fnv1a(json.data(), json.size(), h);
    }
    return h;
}

/**
 * The stores' acceptance matrix: a campaign over campaignNames() under
 * @p base sets the golden; then at jobs 1/8/16 the campaign under each
 * option set @p states yields — in order, so a state may read what an
 * earlier one stored — must hash to the golden and match the baseline
 * bitwise slot by slot.
 */
inline void
expectStoreStatesMatch(
    const SimConfig &cfg, const IsolationOptions &base,
    const std::vector<std::function<IsolationOptions()>> &states,
    uint64_t instrs, uint64_t warmup)
{
    const std::vector<std::string> names = campaignNames();
    auto baseline =
        runWorkloadsIsolated(cfg, names, instrs, warmup, 1, base);
    const uint64_t golden = campaignHash(baseline);
    for (unsigned jobs : {1u, 8u, 16u}) {
        for (size_t s = 0; s < states.size(); ++s) {
            SCOPED_TRACE(cfg.name + " jobs=" + std::to_string(jobs) +
                         " store state " + std::to_string(s));
            auto got = runWorkloadsIsolated(cfg, names, instrs, warmup,
                                            jobs, states[s]());
            EXPECT_EQ(campaignHash(got), golden);
            for (size_t i = 0; i < names.size(); ++i)
                expectBitwiseEqual(got[i].result, baseline[i].result);
        }
    }
}

} // namespace catchsim

#endif // CATCHSIM_TESTS_STORE_TEST_UTIL_HH_

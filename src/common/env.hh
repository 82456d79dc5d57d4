/**
 * @file
 * The single audited gateway for process-environment configuration
 * (CATCH_* knobs). Direct std::getenv calls are banned elsewhere in the
 * tree (enforced by the env-gateway rule of
 * tools/analysis/catch_analyze.py): the environment is not a
 * synchronised resource, so every read must funnel through here, where
 * the single-threaded-startup contract is stated once and checked by
 * review instead of being re-derived at each call site.
 *
 * Contract: call these helpers only before the first worker thread is
 * started (bench/CLI mains and ExperimentEnv::fromEnvironment all
 * read their knobs up front). setenv after threads exist is undefined
 * behaviour regardless of these helpers.
 */

#ifndef CATCHSIM_COMMON_ENV_HH_
#define CATCHSIM_COMMON_ENV_HH_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

#include "common/logging.hh"

namespace catchsim
{

/** Raw lookup; prefer the typed helpers below. Empty-unset aware. */
inline const char *
envRaw(const char *name)
{
    // Single-threaded-startup contract documented above.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    return std::getenv(name);
}

/** String knob, or @p fallback when unset. */
inline std::string
envString(const char *name, const std::string &fallback = "")
{
    const char *v = envRaw(name);
    return v ? std::string(v) : fallback;
}

/**
 * Unsigned decimal knob, or @p fallback when unset. A set value that is
 * not a plain in-range decimal ("1e5", "4x", "-1") also yields
 * @p fallback, with one warning per distinct bad setting naming the
 * knob, so a typo never silently runs the default.
 */
inline uint64_t
envU64(const char *name, uint64_t fallback)
{
    const char *v = envRaw(name);
    if (!v || !v[0])
        return fallback;
    char *end = nullptr;
    errno = 0;
    uint64_t parsed = std::strtoull(v, &end, 10);
    if (v[0] >= '0' && v[0] <= '9' && *end == '\0' && errno != ERANGE)
        return parsed;
    static std::mutex mu;
    static std::set<std::string> warned;
    std::string setting = std::string(name) + "='" + v + "'";
    std::lock_guard<std::mutex> lock(mu);
    if (warned.insert(setting).second)
        warn(setting, " is not an unsigned decimal; using the default ",
             fallback);
    return fallback;
}

/** Boolean knob: set-and-first-char-'1' is true (repo convention). */
inline bool
envFlag(const char *name)
{
    const char *v = envRaw(name);
    return v && v[0] == '1';
}

} // namespace catchsim

#endif // CATCHSIM_COMMON_ENV_HH_

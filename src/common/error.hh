/**
 * @file
 * Typed error taxonomy for recoverable failures.
 *
 * Library code never terminates the process on a recoverable error:
 * it returns a SimError wrapped in Expected<T> and lets the caller —
 * ultimately the per-run isolation layer in sim/parallel_runner or the
 * CLI boundary — decide whether one bad run degrades a campaign or
 * stops it. fatal()/panic() remain only at the CLI boundary and inside
 * CATCHSIM_ASSERT (invariant checks for genuine simulator bugs); the
 * `fatal-boundary` rule of tools/analysis/catch_analyze.py enforces
 * the split.
 *
 * Categories mirror how the suite executor reacts:
 *   config          caller mistake (unknown workload, bad geometry);
 *                   never retried, surfaced once with exit code 2
 *   trace-corrupt   a stored record or result document failed
 *                   validation, or an injected fault; not retried
 *   io-transient    an IO operation that may succeed on retry; retried
 *                   with bounded attempt-count-based backoff
 *   budget-exceeded a run overran its watchdog budget (hang/livelock);
 *                   reported as timed-out, not retried
 *   internal        an unexpected exception escaped a worker; a bug,
 *                   contained to the failing run's slot
 *
 * Process-isolated execution (sim/supervisor.hh) adds three categories
 * that can only happen when a run lives in its own worker process:
 *   crashed           the worker process died (signal, nonzero exit,
 *                     protocol corruption) before delivering a result;
 *                     restarted up to CATCH_MAX_ATTEMPTS times
 *   heartbeat-timeout the worker stopped heartbeating past the
 *                     wall-clock watchdog; SIGKILLed, not restarted
 *                     (hangs are not transient)
 *   exec-fail         the worker binary could not be executed at all;
 *                     restarted (spawn failures may be transient)
 */

#ifndef CATCHSIM_COMMON_ERROR_HH_
#define CATCHSIM_COMMON_ERROR_HH_

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "common/logging.hh"

namespace catchsim
{

enum class ErrorCategory : uint8_t
{
    Config,
    TraceCorrupt,
    IoTransient,
    BudgetExceeded,
    Internal,
    Crashed,
    HeartbeatTimeout,
    ExecFail,
};

/** Stable wire name of a category ("config", "trace-corrupt", ...). */
constexpr const char *
errorCategoryName(ErrorCategory c)
{
    switch (c) {
      case ErrorCategory::Config:         return "config";
      case ErrorCategory::TraceCorrupt:   return "trace-corrupt";
      case ErrorCategory::IoTransient:    return "io-transient";
      case ErrorCategory::BudgetExceeded: return "budget-exceeded";
      case ErrorCategory::Internal:       return "internal";
      case ErrorCategory::Crashed:        return "crashed";
      case ErrorCategory::HeartbeatTimeout: return "heartbeat-timeout";
      case ErrorCategory::ExecFail:       return "exec-fail";
    }
    return "internal";
}

/** Parses a wire name back into a category (worker results). */
inline std::optional<ErrorCategory>
errorCategoryFromName(const std::string &name)
{
    for (ErrorCategory c :
         {ErrorCategory::Config, ErrorCategory::TraceCorrupt,
          ErrorCategory::IoTransient, ErrorCategory::BudgetExceeded,
          ErrorCategory::Internal, ErrorCategory::Crashed,
          ErrorCategory::HeartbeatTimeout, ErrorCategory::ExecFail})
        if (name == errorCategoryName(c))
            return c;
    return std::nullopt;
}

/** A recoverable failure: category for policy, message for humans. */
struct SimError
{
    ErrorCategory category = ErrorCategory::Internal;
    std::string message;

    /** True when the isolation layer may retry the operation. */
    bool transient() const { return category == ErrorCategory::IoTransient; }
};

/** Builds a SimError with a concatenated message, printf-free. */
template <typename... Args>
SimError
simError(ErrorCategory category, Args &&...args)
{
    return SimError{category,
                    detail::concat(std::forward<Args>(args)...)};
}

/**
 * A value or a SimError; the library's return type for anything that
 * can fail recoverably. Implicitly constructible from both sides so
 * `return simError(...)` and `return value` read naturally.
 */
template <typename T>
class [[nodiscard]] Expected
{
  public:
    Expected(T value) : v_(std::move(value)) {} // NOLINT(*-explicit-*)
    Expected(SimError error) : v_(std::move(error)) {} // NOLINT(*-explicit-*)

    bool ok() const { return std::holds_alternative<T>(v_); }
    explicit operator bool() const { return ok(); }

    T &
    value() &
    {
        CATCHSIM_ASSERT(ok(), "value() on error Expected: ",
                        std::get<SimError>(v_).message);
        return std::get<T>(v_);
    }

    const T &
    value() const &
    {
        CATCHSIM_ASSERT(ok(), "value() on error Expected: ",
                        std::get<SimError>(v_).message);
        return std::get<T>(v_);
    }

    T &&
    value() &&
    {
        CATCHSIM_ASSERT(ok(), "value() on error Expected: ",
                        std::get<SimError>(v_).message);
        return std::get<T>(std::move(v_));
    }

    const SimError &
    error() const
    {
        CATCHSIM_ASSERT(!ok(), "error() on ok Expected");
        return std::get<SimError>(v_);
    }

  private:
    std::variant<T, SimError> v_;
};

/** Expected<void>: success, or a SimError. */
template <>
class [[nodiscard]] Expected<void>
{
  public:
    Expected() = default;
    Expected(SimError error) : err_(std::move(error)) {} // NOLINT(*-explicit-*)

    bool ok() const { return !err_.has_value(); }
    explicit operator bool() const { return ok(); }

    const SimError &
    error() const
    {
        CATCHSIM_ASSERT(!ok(), "error() on ok Expected");
        return *err_;
    }

  private:
    std::optional<SimError> err_;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_ERROR_HH_

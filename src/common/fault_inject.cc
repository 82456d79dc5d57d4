#include "common/fault_inject.hh"

#include <cstdlib>

#include "common/env.hh"
#include "common/rng.hh"

namespace catchsim
{

namespace
{

/** FNV-1a: a platform-stable name hash (std::hash is not portable). */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

Expected<FaultKind>
parseKind(const std::string &word)
{
    for (FaultKind k :
         {FaultKind::TraceCorrupt, FaultKind::IoTransient,
          FaultKind::WorkerThrow, FaultKind::Hang, FaultKind::CrashAbort,
          FaultKind::CrashSegv, FaultKind::Oom, FaultKind::ExecFail,
          FaultKind::HeartbeatStall})
        if (word == faultKindName(k))
            return k;
    return simError(ErrorCategory::Config, "CATCH_FAULT_INJECT: unknown "
                    "fault kind '", word, "' (expected trace-corrupt, "
                    "io-transient, exception, hang, crash-abort, "
                    "crash-segv, oom, exec-fail or heartbeat-stall)");
}

/** Strict non-negative integer parse; nullopt on garbage. */
bool
parseU64(const std::string &s, uint64_t *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    *out = std::strtoull(s.c_str(), &end, 10);
    return end && *end == '\0';
}

Expected<FaultClause>
parseClause(const std::string &text)
{
    FaultClause clause;
    size_t colon = text.find(':');
    if (colon == std::string::npos)
        return simError(ErrorCategory::Config, "CATCH_FAULT_INJECT: "
                        "clause '", text, "' has no ':' (want "
                        "kind:target[:xN])");
    auto kind = parseKind(text.substr(0, colon));
    if (!kind.ok())
        return kind.error();
    clause.kind = kind.value();

    std::string rest = text.substr(colon + 1);
    // Optional ':xN' attempt count suffix.
    size_t xpos = rest.rfind(":x");
    if (xpos != std::string::npos) {
        if (!parseU64(rest.substr(xpos + 2), &clause.failCount) ||
            clause.failCount == 0)
            return simError(ErrorCategory::Config, "CATCH_FAULT_INJECT: "
                            "bad attempt count in '", text, "'");
        rest = rest.substr(0, xpos);
    } else if (clause.kind == FaultKind::IoTransient) {
        clause.failCount = 1; // transient by default: retry succeeds
    }

    if (rest.empty())
        return simError(ErrorCategory::Config, "CATCH_FAULT_INJECT: "
                        "empty target in '", text, "'");
    if (rest == "*") {
        clause.every = true;
    } else if (rest[0] == '%') {
        size_t at = rest.find('@');
        uint64_t pct = 0;
        if (at == std::string::npos ||
            !parseU64(rest.substr(1, at - 1), &pct) || pct > 100 ||
            !parseU64(rest.substr(at + 1), &clause.seed))
            return simError(ErrorCategory::Config, "CATCH_FAULT_INJECT: "
                            "bad percent target in '", text,
                            "' (want %<pct>@<seed>)");
        clause.percent = true;
        clause.pct = static_cast<uint32_t>(pct);
    } else {
        clause.target = rest;
    }
    return clause;
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::TraceCorrupt: return "trace-corrupt";
      case FaultKind::IoTransient:  return "io-transient";
      case FaultKind::WorkerThrow:  return "exception";
      case FaultKind::Hang:         return "hang";
      case FaultKind::CrashAbort:   return "crash-abort";
      case FaultKind::CrashSegv:    return "crash-segv";
      case FaultKind::Oom:          return "oom";
      case FaultKind::ExecFail:     return "exec-fail";
      case FaultKind::HeartbeatStall: return "heartbeat-stall";
    }
    return "?";
}

Expected<FaultPlan>
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t semi = spec.find(';', pos);
        if (semi == std::string::npos)
            semi = spec.size();
        std::string clause_text = spec.substr(pos, semi - pos);
        if (!clause_text.empty()) {
            auto clause = parseClause(clause_text);
            if (!clause.ok())
                return clause.error();
            plan.clauses_.push_back(std::move(clause).value());
        }
        pos = semi + 1;
    }
    return plan;
}

const FaultPlan &
FaultPlan::global()
{
    // Magic-static: built once, thread-safe after construction. The
    // env read happens on the first call, which the experiment/CLI
    // startup paths trigger before any worker threads exist.
    static const FaultPlan plan = [] {
        std::string spec = envString("CATCH_FAULT_INJECT");
        if (spec.empty())
            return FaultPlan();
        auto parsed = parse(spec);
        if (!parsed.ok()) {
            warn("ignoring CATCH_FAULT_INJECT: ",
                 parsed.error().message);
            return FaultPlan();
        }
        inform("fault injection active: ", spec);
        return std::move(parsed).value();
    }();
    return plan;
}

bool
FaultPlan::shouldInject(FaultKind kind, const std::string &name,
                        unsigned attempt) const
{
    for (const auto &clause : clauses_) {
        if (clause.kind != kind)
            continue;
        bool selected;
        if (clause.every) {
            selected = true;
        } else if (clause.percent) {
            // One seeded draw per name: stable across attempts, job
            // counts and machines.
            Rng rng(clause.seed ^ fnv1a(name));
            selected = rng.percent(clause.pct);
        } else {
            selected = clause.target == name;
        }
        if (!selected)
            continue;
        if (clause.failCount == 0 || attempt <= clause.failCount)
            return true;
    }
    return false;
}

} // namespace catchsim

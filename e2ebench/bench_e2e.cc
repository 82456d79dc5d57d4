/**
 * @file
 * bench_e2e: one workload of the end-to-end benchmark, in a fresh
 * process per invocation.
 *
 *   bench_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *             [--scale=full|smoke]
 *
 * Workloads: detailed, sampled-sweep, campaign, mp-mix (workloads.cc).
 * The multi-threaded ones use min(nproc, 4) worker threads.
 * With --trace=0 it runs the workload's timed passes and reports the
 * end-to-end metrics; with --trace=1 it runs the per-layer profile
 * (layers.cc). It prints one line per metric with unit, sample count
 * and quartiles, then a JSON document as the last line of stdout. Host
 * times appear calibrated by the probe (probe.hh) with the raw value
 * beside them. Exit status is 0 whenever the run completed — failed
 * operations are reported in the document — and 2 on bad arguments.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.hh"
#include "common/host_clock.hh"
#include "probe.hh"
#include "sim/warm_state.hh"
#include "trace/chunk_store.hh"

namespace e2e
{

using namespace catchsim;

double
now()
{
    return hostSeconds();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        return {median(v), median(v)};
    std::sort(v.begin(), v.end());
    const long n = 4, ld = static_cast<long>(v.size()), m = ld + 1;
    auto cut = [&](long i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        const long delta = i * m - j * n;
        return (v[j - 1] * static_cast<double>(n - delta) +
                v[j] * static_cast<double>(delta)) /
               static_cast<double>(n);
    };
    return {cut(1), cut(3)};
}

uint64_t
fnv1a(const std::string &bytes, uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
checkResult(const SimResult &r, uint64_t instrs)
{
    const uint64_t *hits = r.hier.loadHits;
    if (hits[0] + hits[1] + hits[2] + hits[3] != r.hier.loads)
        return "per-level load hits do not sum to hier.loads";
    if (r.sampled) {
        if (r.sample.windows == 0)
            return "sampled run measured no window";
    } else {
        if (r.core.instrs != instrs)
            return "ran " + std::to_string(r.core.instrs) +
                   " instrs, wanted " + std::to_string(instrs);
        if (r.core.loads != r.hier.loads + r.core.forwardedLoads)
            return "core.loads != hier.loads + forwardedLoads";
    }
    if (!(r.ipc > 0) || !std::isfinite(r.ipc))
        return "no IPC";
    return {};
}

std::unique_ptr<WarmStateStore>
sweepWarmStore()
{
    WarmStateStore::Config cfg;
    cfg.memBudgetBytes = size_t(512) << 20;
    return std::make_unique<WarmStateStore>(cfg);
}

Expected<SimResult>
runCell(const Kernel &k, const SimConfig &cfg, uint64_t instrs,
        uint64_t warmup, ChunkStore *chunks, WarmStateStore *warm,
        RunProfile *profile)
{
    try {
        auto wl = k.make();
        Simulator sim(cfg, TraceMode::Streamed, chunks, warm);
        return sim.runGuarded(*wl, instrs, warmup, RunBudget::unlimited(),
                              profile);
    } catch (const std::exception &e) {
        return simError(ErrorCategory::Internal, "exception: ", e.what());
    }
}

void
Calibrator::sample()
{
    const ProbeSample s = runProbe();
    scores_.push_back(s.mops);
    ok_ = ok_ && s.checksumOk;
}

double
Calibrator::factor() const
{
    return scores_.empty() ? 1.0 : median(scores_) / kProbeRefMops;
}

void
Report::add(const std::string &name, const std::string &unit, Kind kind,
            std::vector<double> samples, double exponent)
{
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.samples.insert(e.samples.end(), samples.begin(),
                             samples.end());
            return;
        }
    }
    entries_.push_back(Entry{name, unit, kind, std::move(samples), exponent});
}

void
Report::note(const std::string &line)
{
    if (std::find(notes_.begin(), notes_.end(), line) == notes_.end())
        notes_.push_back(line);
}

void
Report::failure(const std::string &what)
{
    if (std::find(failures_.begin(), failures_.end(), what) !=
        failures_.end())
        return;
    std::fprintf(stderr, "bench_e2e: FAILED: %s\n", what.c_str());
    failures_.push_back(what);
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Time: return "time";
      case Kind::Rate: return "rate";
      default: return "count";
    }
}

/** Host factor applied to a value of kind @p k. */
double
calibrate(double raw, Kind k, double factor)
{
    switch (k) {
      case Kind::Time: return raw * factor;
      case Kind::Rate: return raw / factor;
      default: return raw;
    }
}

} // namespace

void
Report::print(const Options &o, const Calibrator &cal) const
{
    const double f = cal.factor();
    size_t most = 0;
    std::string metrics;
    for (const Entry &e : entries_) {
        const double raw = median(e.samples);
        auto [q1, q3] = quartiles(e.samples);
        const double ef = std::pow(f, e.exponent);
        const double value = calibrate(raw, e.kind, ef);
        q1 = calibrate(q1, e.kind, ef);
        q3 = calibrate(q3, e.kind, ef);
        if (e.kind == Kind::Rate && q1 > q3)
            std::swap(q1, q3);
        if (e.kind != Kind::Count)
            most = std::max(most, e.samples.size());
        std::printf("metric %-38s %14.6g %-11s n=%-3zu q1 %-12.6g q3 %-12.6g",
                    e.name.c_str(), value, e.unit.c_str(), e.samples.size(),
                    q1, q3);
        if (e.kind != Kind::Count)
            std::printf(" raw %.6g", raw);
        std::printf("\n");
        if (!metrics.empty())
            metrics += ", ";
        metrics += jsonString(e.name) + ": {\"value\": " +
                   jsonNumber(value) + ", \"unit\": " + jsonString(e.unit) +
                   ", \"raw\": " + jsonNumber(raw) +
                   ", \"n\": " + std::to_string(e.samples.size()) +
                   ", \"q1\": " + jsonNumber(q1) + ", \"q3\": " +
                   jsonNumber(q3) + ", \"kind\": \"" + kindName(e.kind) +
                   "\", \"exponent\": " + jsonNumber(e.exponent) + "}";
    }
    // A tail percentile needs ten samples beyond it; say so instead of
    // printing one the sample count cannot support.
    if (most < 20)
        std::printf("tail: no percentile above the median has 10 samples "
                    "beyond it (at most %zu samples per metric)\n",
                    most);
    for (const std::string &n : notes_)
        std::printf("note %s\n", n.c_str());
    std::printf("probe factor %.4f (median %.1f of %zu probes, reference "
                "%.1f Mops/s)%s\n",
                f, median(cal.scores()), cal.scores().size(), kProbeRefMops,
                cal.ok() ? "" : " CHECKSUM MISMATCH");
    std::printf("digest %016" PRIx64 "\n", digest_);
    std::printf("ops attempted %" PRIu64 " failed %" PRIu64 "\n", attempted_,
                failed_);

    const bool correct = failed_ == 0 && failures_.empty() && cal.ok();
    std::string doc = "{\"workload\": " + jsonString(o.workload) +
                      ", \"seed\": " + std::to_string(o.seed) +
                      ", \"trace\": " + (o.trace ? "1" : "0") +
                      ", \"seconds\": " + jsonNumber(o.seconds) +
                      ", \"jobs\": " + std::to_string(o.jobs) +
                      ", \"correct\": " + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted_) +
                      ", \"failed\": " + std::to_string(failed_);
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, digest_);
    doc += ", \"digest\": \"" + std::string(hex) + "\"";
    doc += ", \"probe\": {\"ref\": " + jsonNumber(kProbeRefMops) +
           ", \"factor\": " + jsonNumber(f) + ", \"ok\": " +
           (cal.ok() ? "true" : "false") + ", \"scores\": [";
    for (size_t i = 0; i < cal.scores().size(); ++i)
        doc += (i ? ", " : "") + jsonNumber(cal.scores()[i]);
    doc += "]}, \"metrics\": {" + metrics + "}, \"notes\": [";
    for (size_t i = 0; i < notes_.size(); ++i)
        doc += (i ? ", " : "") + jsonString(notes_[i]);
    doc += "], \"failures\": [";
    for (size_t i = 0; i < failures_.size(); ++i)
        doc += (i ? ", " : "") + jsonString(failures_[i]);
    doc += "]}";
    std::printf("%s\n", doc.c_str());
    std::fflush(stdout);
}

} // namespace e2e

namespace
{

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e "
                 "--workload=detailed|sampled-sweep|campaign|mp-mix "
                 "[--seed=N] [--seconds=S] [--trace=0|1] "
                 "[--scale=full|smoke]\n",
                 why);
    return 2;
}

/** Parses a whole decimal number; false on junk or overflow. */
bool
parseUnsigned(const std::string &s, uint64_t *out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace e2e;
    Options o;
    o.jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
        uint64_t n = 0;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed" && parseUnsigned(val, &n)) {
            o.seed = n;
        } else if (key == "--seconds" && parseUnsigned(val, &n) &&
                   n <= 3600) {
            o.seconds = static_cast<double>(n);
        } else if (key == "--trace" && (val == "0" || val == "1")) {
            o.trace = val == "1";
        } else if (key == "--scale" && (val == "full" || val == "smoke")) {
            o.scale = val == "full" ? Scale::full() : Scale::smoke();
        } else {
            return usage(("bad argument '" + arg + "'").c_str());
        }
    }
    if (o.workload != "detailed" && o.workload != "sampled-sweep" &&
        o.workload != "campaign" && o.workload != "mp-mix")
        return usage("unknown or missing --workload");

    // Resolve the environment-backed stores on this thread before any
    // worker starts (env.hh contract); the benchmark passes its own.
    (void)catchsim::ChunkStore::global();
    (void)catchsim::WarmStateStore::global();

    std::printf("bench_e2e workload=%s seed=%" PRIu64 " seconds=%g "
                "trace=%d jobs=%u\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
                o.jobs);
    std::fflush(stdout);
    Report rep;
    Calibrator cal;
    if (o.trace)
        runLayers(o, rep, cal);
    else
        runTimed(o, rep, cal);
    rep.print(o, cal);
    return 0;
}

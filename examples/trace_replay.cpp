/**
 * @file
 * Capture-and-replay: generate a workload trace once, save it to disk,
 * and replay the same trace across a configuration sweep. Useful when a
 * sweep is wide (trace generation is paid once) and to ship exact
 * instruction streams between machines.
 *
 *   ./trace_replay [workload] [instructions]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cache/hierarchy.hh"
#include "core/ooo_core.hh"
#include "sim/configs.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"

using namespace catchsim;

namespace
{

/** Runs an already-materialised trace on @p cfg and returns the IPC. */
double
replay(const SimConfig &cfg, const Trace &trace)
{
    CacheHierarchy hierarchy(cfg);
    OooCore core(cfg, 0, hierarchy, nullptr, nullptr);
    core.bind(trace);
    while (core.step()) {
    }
    return core.stats().ipc();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "hmmer";
    uint64_t instrs = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                               : 200000;
    const std::string path = "/tmp/" + name + ".trace";

    // Capture once...
    Trace trace = makeWorkload(name)->generate(instrs);
    if (auto saved = saveTrace(trace, path); !saved.ok()) {
        std::fprintf(stderr, "%s\n", saved.error().message.c_str());
        return 1;
    }
    std::printf("captured %zu ops of %s to %s\n", trace.ops.size(),
                name.c_str(), path.c_str());

    // ...replay many times.
    Expected<Trace> loaded = loadTrace(path);
    if (!loaded.ok()) {
        std::fprintf(stderr, "%s\n", loaded.error().message.c_str());
        return 1;
    }
    const Trace replayed = std::move(loaded).value();

    std::printf("\n%-28s %8s\n", "configuration", "IPC");
    for (uint64_t l2_kb : {256ULL, 512ULL, 1024ULL, 2048ULL}) {
        SimConfig cfg = baselineSkx();
        cfg.l2.sizeBytes = l2_kb * 1024;
        while (!isPowerOfTwo(cfg.l2.numSets()))
            ++cfg.l2.ways;
        cfg.name = "L2=" + std::to_string(l2_kb) + "KB";
        std::printf("%-28s %8.3f\n", cfg.name.c_str(),
                    replay(cfg, replayed));
    }
    SimConfig two = noL2(baselineSkx(), 9728);
    std::printf("%-28s %8.3f\n", two.name.c_str(), replay(two, replayed));

    std::remove(path.c_str());
    return 0;
}

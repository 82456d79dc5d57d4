#include "sim/mp_simulator.hh"

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{

MpSimulator::MpSimulator(const SimConfig &cfg) : cfg_(cfg)
{
    // MP mixes always run detailed: the shared-LLC interference being
    // measured is exactly what functional warming abstracts away.
    cfg_.sampling = SamplingConfig();
}

MpResult
MpSimulator::run(const MpMix &mix, uint64_t instrs_per_core,
                 uint64_t warmup, const std::array<double, 4> &ipc_alone)
{
    // One stream per core: O(chunk) resident trace per core instead of
    // fully materialized traces.
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<std::unique_ptr<TraceStream>> streams;
    std::vector<Machine::CoreTrace> traces;
    for (const auto &name : mix.workloads) {
        workloads.push_back(makeWorkload(name));
        streams.push_back(std::make_unique<TraceStream>(
            *workloads.back(), instrs_per_core + warmup,
            TraceStream::kDefaultChunkOps, std::function<double()>(),
            ChunkStore::global()));
        traces.push_back({streams.back().get(), nullptr});
    }

    cfg_.numCores = static_cast<uint32_t>(traces.size());
    Machine machine(cfg_, traces);
    machine.run(warmup, RunBudget::unlimited());

    MpResult r;
    r.mix = mix.name;
    r.config = cfg_.name;
    for (CoreId c = 0; c < traces.size(); ++c) {
        const CoreStats s = machine.core(c).stats();
        // Stats reset once, after the slowest core's warmup: a core
        // that finished its stream before then measured nothing.
        if (s.instrs == 0)
            warn("MP mix '", mix.name, "': core ", c, " (",
                 mix.workloads[c], ") measured 0 instructions; it "
                 "finished before the slowest core's warmup, so its "
                 "IPC reads 0");
        r.ipc[c] = s.ipc();
        r.ipcAlone[c] = ipc_alone[c];
        if (ipc_alone[c] > 0)
            r.weightedSpeedup += r.ipc[c] / ipc_alone[c];
    }
    return r;
}

} // namespace catchsim

#include "sim/mp_simulator.hh"

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "core/ooo_core.hh"
#include "criticality/ddg.hh"
#include "criticality/heuristic_detector.hh"
#include "tact/tact.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{

MpSimulator::MpSimulator(const SimConfig &cfg) : cfg_(cfg)
{
    cfg_.numCores = 4;
    // MP mixes always run detailed: the shared-LLC interference being
    // measured is exactly what functional warming abstracts away.
    cfg_.sampling = SamplingConfig();
    auto valid = cfg_.validate();
    CATCHSIM_ASSERT(valid.ok(), "invalid MP config: ",
                    valid.ok() ? "" : valid.error().message);
}

MpResult
MpSimulator::run(const MpMix &mix, uint64_t instrs_per_core,
                 uint64_t warmup, const std::array<double, 4> &ipc_alone)
{
    const uint64_t total = instrs_per_core + warmup;

    // One stream per core: O(chunk) resident trace per core instead of
    // four fully materialized traces.
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<std::unique_ptr<TraceStream>> streams;
    workloads.reserve(mix.workloads.size());
    streams.reserve(mix.workloads.size());
    for (const auto &name : mix.workloads) {
        workloads.push_back(makeWorkload(name));
        streams.push_back(std::make_unique<TraceStream>(
            *workloads.back(), total, TraceStream::kDefaultChunkOps,
            std::function<double()>(), ChunkStore::global()));
    }

    CacheHierarchy hierarchy(cfg_);

    std::vector<std::unique_ptr<CriticalityDetector>> detectors(4);
    std::vector<std::unique_ptr<Tact>> tacts(4);
    if (cfg_.criticality.enabled) {
        for (CoreId c = 0; c < 4; ++c) {
            if (cfg_.criticality.kind == DetectorKind::Heuristic)
                detectors[c] =
                    std::make_unique<HeuristicCriticalityDetector>(
                        cfg_.criticality);
            else
                detectors[c] = std::make_unique<DdgCriticalityDetector>(
                    cfg_.criticality, cfg_.robSize, cfg_.renameLat,
                    cfg_.redirectLat, cfg_.width);
        }
        hierarchy.setCriticalQuery([&detectors](CoreId c, Addr pc) {
            return detectors[c]->isCritical(pc);
        });
        if (cfg_.tact.any()) {
            for (CoreId c = 0; c < 4; ++c) {
                CriticalityDetector *det = detectors[c].get();
                tacts[c] = std::make_unique<Tact>(
                    cfg_.tact, c, hierarchy,
                    [det](Addr pc) { return det->isCritical(pc); },
                    streams[c]->mem().get());
            }
        }
    }

    std::vector<std::unique_ptr<OooCore>> cores;
    for (CoreId c = 0; c < 4; ++c) {
        cores.push_back(std::make_unique<OooCore>(
            cfg_, c, hierarchy, detectors[c].get(), tacts[c].get()));
        cores[c]->bind(*streams[c]);
    }

    // Interleaved stepping ordered by local core time keeps the shared
    // LLC/DRAM access stream coherent across cores.
    bool warm_reset_done = false;
    while (true) {
        OooCore *next = nullptr;
        for (auto &core : cores)
            if (!core->done() && (!next || core->now() < next->now()))
                next = core.get();
        if (!next)
            break;
        next->step();

        if (!warm_reset_done) {
            bool all_warm = true;
            for (auto &core : cores)
                all_warm &= core->instrsDone() >= warmup;
            if (all_warm) {
                warm_reset_done = true;
                hierarchy.resetStats();
                for (auto &core : cores)
                    core->markMeasurementStart();
            }
        }
    }

    MpResult r;
    r.mix = mix.name;
    r.config = cfg_.name;
    r.weightedSpeedup = 0;
    for (CoreId c = 0; c < 4; ++c) {
        const CoreStats s = cores[c]->stats();
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

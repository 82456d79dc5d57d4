#include "common/sim_config.hh"

#include <utility>

#include "common/bitutil.hh"

namespace catchsim
{

void
SimConfig::enableCatch()
{
    criticality.enabled = true;
    tact.cross = true;
    tact.deepSelf = true;
    tact.feeder = true;
    tact.code = true;
}

void
SimConfig::removeL2(uint64_t llc_bytes)
{
    hasL2 = false;
    inclusion = InclusionPolicy::Nine;
    llc.sizeBytes = llc_bytes;
    // keep the LLC geometry buildable: ways must divide size into
    // power-of-two sets
    while (llc.numSets() == 0 || !isPowerOfTwo(llc.numSets()))
        ++llc.ways;
}

namespace
{

Expected<void>
checkGeometry(const char *name, const CacheGeometry &g)
{
    if (g.sizeBytes % (kLineBytes * g.ways) != 0)
        return simError(ErrorCategory::Config, name,
                        ": size not divisible into ways*lines");
    if (!isPowerOfTwo(g.numSets()))
        return simError(ErrorCategory::Config, name,
                        ": number of sets (", g.numSets(),
                        ") must be a power of two");
    if (g.latency == 0)
        return simError(ErrorCategory::Config, name, ": zero latency");
    return {};
}

} // namespace

Expected<void>
SimConfig::validate() const
{
    if (width == 0 || robSize < 2 * width)
        return simError(ErrorCategory::Config,
                        "core width/ROB configuration is degenerate");
    if (numArchRegs < 4 || numArchRegs > 64)
        return simError(ErrorCategory::Config,
                        "numArchRegs out of supported range");
    // An issue calendar packs its per-cycle count into 8 bits, and a
    // port count of 0 could never issue.
    for (auto [field, ports] : {std::pair{"aluPorts", aluPorts},
                                {"loadPorts", loadPorts},
                                {"storePorts", storePorts},
                                {"fpPorts", fpPorts}})
        if (ports < 1 || ports > 255)
            return simError(ErrorCategory::Config, field, " (", ports,
                            ") out of range 1..255");
    if (storeQueueSize == 0)
        return simError(ErrorCategory::Config,
                        "storeQueueSize must be non-zero");
    if (auto e = checkGeometry("l1i", l1i); !e.ok())
        return e;
    if (auto e = checkGeometry("l1d", l1d); !e.ok())
        return e;
    if (hasL2)
        if (auto e = checkGeometry("l2", l2); !e.ok())
            return e;
    if (auto e = checkGeometry("llc", llc); !e.ok())
        return e;
    if (!hasL2 && inclusion == InclusionPolicy::Exclusive)
        return simError(ErrorCategory::Config,
                        "exclusive LLC requires an L2 to be exclusive of");
    if (numCores == 0 || numCores > 16)
        return simError(ErrorCategory::Config,
                        "numCores out of supported range");
    if (criticality.graphFactor < criticality.walkFactor)
        return simError(ErrorCategory::Config,
                        "DDG buffer must be at least as deep as the walk");
    if (tact.any() && !criticality.enabled)
        return simError(ErrorCategory::Config,
                        "TACT prefetchers require criticality detection");
    if (!isPowerOfTwo(dram.channels) || !isPowerOfTwo(dram.banksPerRank))
        return simError(ErrorCategory::Config,
                        "DRAM channels/banks must be powers of two");
    // The address decode divides by the ranks and the row size, and a
    // drain must retire writes for the queue to stay within its depth.
    if (dram.ranksPerChannel == 0)
        return simError(ErrorCategory::Config,
                        "DRAM ranksPerChannel must be non-zero");
    if (dram.rowBytes < kLineBytes)
        return simError(ErrorCategory::Config, "DRAM rowBytes (",
                        dram.rowBytes, ") is smaller than a line");
    if (dram.writeQueueDepth == 0)
        return simError(ErrorCategory::Config,
                        "DRAM writeQueueDepth must be non-zero");
    if (dram.writeDrainBatch == 0)
        return simError(ErrorCategory::Config,
                        "DRAM writeDrainBatch must be non-zero");
    if (sampling.sampled()) {
        if (sampling.windowInstrs == 0)
            return simError(ErrorCategory::Config,
                            "sampled mode needs a non-zero detailed window");
        // Compared without the sum, which could wrap.
        if (sampling.windowInstrs > sampling.intervalInstrs ||
            sampling.warmupInstrs >
                sampling.intervalInstrs - sampling.windowInstrs)
            return simError(ErrorCategory::Config,
                            "sample warmup+window must fit in the interval");
        if (numCores > 1)
            return simError(ErrorCategory::Config,
                            "sampled mode is single-core only; MP mixes "
                            "run detailed");
    }
    return {};
}

} // namespace catchsim

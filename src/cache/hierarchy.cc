#include "cache/hierarchy.hh"

#include "common/logging.hh"

namespace catchsim
{

CacheHierarchy::CacheHierarchy(const SimConfig &cfg)
    : cfg_(cfg), dram_(cfg.dram)
{
    auto valid = cfg_.validate();
    CATCHSIM_ASSERT(valid.ok(), "invalid config reached the hierarchy: ",
                    valid.ok() ? "" : valid.error().message);
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        l1i_.push_back(std::make_unique<Cache>(
            "l1i" + std::to_string(c), cfg.l1i));
        l1d_.push_back(std::make_unique<Cache>(
            "l1d" + std::to_string(c), cfg.l1d));
        if (cfg.hasL2)
            l2_.push_back(
                std::make_unique<Cache>("l2." + std::to_string(c), cfg.l2));
        stride_.emplace_back(256);
        stream_.emplace_back(64, cfg.streamDegree);
    }
    llc_ = std::make_unique<Cache>("llc", cfg.llc);
    streamCandidates_.reserve(cfg.streamDegree);
}

template <typename IO, typename Self>
void
CacheHierarchy::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("HIER"));
    io.match(s.cfg_.numCores);
    io.match(s.cfg_.hasL2);
    for (CoreId c = 0; c < s.cfg_.numCores; ++c) {
        io.section(*s.l1i_[c]);
        io.section(*s.l1d_[c]);
        if (s.cfg_.hasL2)
            io.section(*s.l2_[c]);
        io.section(s.stride_[c]);
        io.section(s.stream_[c]);
    }
    io.section(*s.llc_);
}

void
CacheHierarchy::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
CacheHierarchy::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

void
CacheHierarchy::resetStats()
{
    stats_ = HierarchyStats();
    tactTimeliness_.reset();
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        l1i_[c]->resetStats();
        l1d_[c]->resetStats();
        if (cfg_.hasL2)
            l2_[c]->resetStats();
    }
    llc_->resetStats();
    dram_.resetStats();
}

// ---------------------------------------------------------------------
// Fill paths
// ---------------------------------------------------------------------

void
CacheHierarchy::fillL1(CoreId core, bool code, Addr addr, bool dirty,
                       Cycle ready_at, FillSource src, Cycle now,
                       Level fill_level, bool warm)
{
    Cache &l1 = code ? *l1i_[core] : *l1d_[core];
    Cache::Victim victim =
        warm ? l1.warmFill(addr, dirty, src, fill_level)
             : l1.fill(addr, dirty, ready_at, src, fill_level);
    if (!victim.valid || !victim.dirty)
        return; // clean L1 victims are dropped (an outer copy exists)
    if (cfg_.hasL2)
        fillL2(core, victim.addr, true, now, FillSource::Writeback, now,
               warm);
    else
        writebackToLlc(victim.addr, now, warm);
}

void
CacheHierarchy::fillL2(CoreId core, Addr addr, bool dirty, Cycle ready_at,
                       FillSource src, Cycle now, bool warm)
{
    CATCHSIM_ASSERT(cfg_.hasL2, "fillL2 without an L2");
    // Exclusive LLC: a line entering the L2 must leave the LLC. The
    // demand paths invalidate before calling us; this catches the
    // writeback path, where an L1 victim re-enters an L2 that evicted
    // the line (to the LLC) while the L1 still held it. The incoming
    // data is the newest version, so the LLC copy is simply dropped
    // (its dirty bit merges in case the L2 copy aged dirty-out).
    if (cfg_.inclusion == InclusionPolicy::Exclusive)
        dirty |= llc_->invalidate(addr, nullptr, !warm);
    Cache::Victim victim = warm
                               ? l2_[core]->warmFill(addr, dirty, src)
                               : l2_[core]->fill(addr, dirty, ready_at,
                                                 src);
    if (!victim.valid)
        return;
    if (cfg_.inclusion == InclusionPolicy::Exclusive) {
        // Every L2 victim's data moves to the LLC (the exclusive-LLC
        // victim traffic the paper's power analysis highlights).
        if (!warm) {
            // catch-analyze: allow(warming-purity)
            ++stats_.ringTransfers;
        }
        fillLlc(victim.addr, victim.dirty, now, FillSource::Writeback,
                now, warm);
    } else if (victim.dirty) {
        // Inclusive and NINE: only dirty data moves (an inclusive LLC
        // is guaranteed to hold the line already).
        writebackToLlc(victim.addr, now, warm);
    }
}

void
CacheHierarchy::writebackToLlc(Addr addr, Cycle now, bool warm)
{
    if (!warm) {
        // catch-analyze: allow(warming-purity)
        ++stats_.ringTransfers;
    }
    if (CacheLine *line = llc_->peek(addr))
        line->dirty = true;
    else
        fillLlc(addr, true, now, FillSource::Writeback, now, warm);
}

void
CacheHierarchy::fillLlc(Addr addr, bool dirty, Cycle ready_at,
                        FillSource src, Cycle now, bool warm)
{
    Cache::Victim victim = warm ? llc_->warmFill(addr, dirty, src)
                                : llc_->fill(addr, dirty, ready_at, src);
    if (!victim.valid)
        return;
    bool victim_dirty = victim.dirty;
    if (cfg_.inclusion == InclusionPolicy::Inclusive) {
        // Back-invalidate inner copies across all cores.
        for (CoreId c = 0; c < cfg_.numCores; ++c) {
            l1i_[c]->invalidate(victim.addr, nullptr, !warm);
            victim_dirty |= l1d_[c]->invalidate(victim.addr, nullptr,
                                                !warm);
            if (cfg_.hasL2)
                victim_dirty |= l2_[c]->invalidate(victim.addr, nullptr,
                                                   !warm);
        }
    }
    if (victim_dirty && !warm) {
        // Warming drops dirty victims silently: data correctness lives
        // in the functional memory, and DRAM timing state is rebuilt by
        // the per-window detailed warmup.
        ++stats_.memTransfers;         // catch-analyze: allow(warming-purity)
        dram_.write(victim.addr, now); // catch-analyze: allow(warming-purity)
    }
}

void
CacheHierarchy::placeFromLlc(CoreId core, bool code, Addr addr,
                             CacheLine &llc_line, bool dirty_fill,
                             Cycle ready_at, FillSource src, Cycle now,
                             bool warm)
{
    if (cfg_.inclusion == InclusionPolicy::Exclusive) {
        // The line moves: it leaves the LLC and the L2 takes over its
        // dirty bit.
        bool dirty = llc_line.dirty || dirty_fill;
        llc_->invalidate(llc_line, !warm);
        fillL2(core, addr, dirty, ready_at, src, now, warm);
    } else if (cfg_.hasL2) {
        // The LLC keeps the line (and its dirty bit); the L2 copy is
        // clean.
        fillL2(core, addr, false, ready_at, src, now, warm);
    }
    fillL1(core, code, addr, dirty_fill, ready_at, src, now, Level::LLC,
           warm);
}

void
CacheHierarchy::placeFromMem(CoreId core, bool code, Addr addr,
                             bool dirty_fill, Cycle ready_at,
                             FillSource src, Cycle now, bool warm)
{
    // Inclusive and NINE allocate in the LLC on the way in; an
    // exclusive LLC holds L2 victims only.
    if (cfg_.inclusion != InclusionPolicy::Exclusive)
        fillLlc(addr, false, ready_at, src, now, warm);
    // A NINE prefetch from memory bypasses the L2.
    bool nine_prefetch = cfg_.inclusion == InclusionPolicy::Nine &&
                         src != FillSource::Demand;
    if (cfg_.hasL2 && !nine_prefetch)
        fillL2(core, addr, dirty_fill, ready_at, src, now, warm);
    fillL1(core, code, addr, dirty_fill, ready_at, src, now, Level::Mem,
           warm);
}

// ---------------------------------------------------------------------
// Demand paths
// ---------------------------------------------------------------------

void
CacheHierarchy::streamObserve(CoreId core, Addr addr, Cycle now)
{
    if (!cfg_.l2StreamPrefetcher)
        return;
    streamCandidates_.clear();
    stream_[core].observe(addr, streamCandidates_);
    for (Addr line : streamCandidates_) {
        ++stats_.streamPfIssued;
        if (cfg_.hasL2) {
            if (l2_[core]->peek(line))
                continue;
            if (CacheLine *in_llc = llc_->peek(line)) {
                // Pull into the L2 ahead of use.
                ++stats_.ringTransfers;
                bool dirty = in_llc->dirty;
                if (cfg_.inclusion == InclusionPolicy::Exclusive)
                    llc_->invalidate(*in_llc);
                fillL2(core, line, dirty, now + latLlc(),
                       FillSource::StreamPf, now);
            } else {
                ++stats_.ringTransfers;
                ++stats_.memTransfers;
                uint64_t mlat = dram_.read(line, now + latLlc());
                // Inclusive LLC: an L2 fill from memory must also fill
                // the LLC or inclusion breaks.
                if (cfg_.inclusion == InclusionPolicy::Inclusive)
                    fillLlc(line, false, now + latLlc() + mlat,
                            FillSource::StreamPf, now);
                fillL2(core, line, false, now + latLlc() + mlat,
                       FillSource::StreamPf, now);
            }
        } else {
            if (llc_->peek(line))
                continue;
            ++stats_.memTransfers;
            uint64_t mlat = dram_.read(line, now + latLlc());
            fillLlc(line, false, now + latLlc() + mlat,
                    FillSource::StreamPf, now);
        }
    }
}

void
CacheHierarchy::warmStreamObserve(CoreId core, Addr addr, Cycle now)
{
    if (!cfg_.l2StreamPrefetcher)
        return;
    streamCandidates_.clear();
    stream_[core].observe(addr, streamCandidates_);
    for (Addr line : streamCandidates_) {
        if (cfg_.hasL2) {
            if (l2_[core]->peek(line))
                continue;
            if (CacheLine *in_llc = llc_->peek(line)) {
                bool dirty = in_llc->dirty;
                if (cfg_.inclusion == InclusionPolicy::Exclusive)
                    llc_->invalidate(*in_llc, false);
                fillL2(core, line, dirty, 0, FillSource::StreamPf, now,
                       true);
            } else {
                if (cfg_.inclusion == InclusionPolicy::Inclusive)
                    fillLlc(line, false, 0, FillSource::StreamPf, now,
                            true);
                fillL2(core, line, false, 0, FillSource::StreamPf, now,
                       true);
            }
        } else {
            if (llc_->peek(line))
                continue;
            fillLlc(line, false, 0, FillSource::StreamPf, now, true);
        }
    }
}

void
CacheHierarchy::warmMiss(CoreId core, bool code, Addr addr, Cycle now,
                         bool dirty_fill)
{
    warmStreamObserve(core, addr, now);

    if (cfg_.hasL2) {
        if (CacheLine *line = l2_[core]->warmLookup(addr)) {
            line->usedSinceFill = true;
            if (dirty_fill)
                line->dirty = true;
            fillL1(core, code, addr, dirty_fill, 0, FillSource::Demand,
                   now, Level::L2, true);
            return;
        }
    }

    if (CacheLine *line = llc_->warmLookup(addr)) {
        line->usedSinceFill = true;
        placeFromLlc(core, code, addr, *line, dirty_fill, 0,
                     FillSource::Demand, now, true);
        return;
    }

    // Miss to memory: the line materialises with no DRAM timing.
    placeFromMem(core, code, addr, dirty_fill, 0, FillSource::Demand, now,
                 true);
}

MemResult
CacheHierarchy::serviceMiss(CoreId core, bool code, Addr addr, Cycle now,
                            bool dirty_fill, uint64_t *hit_ctr)
{
    streamObserve(core, addr, now);

    if (cfg_.hasL2) {
        if (CacheLine *line = l2_[core]->lookup(addr)) {
            line->usedSinceFill = true;
            uint64_t lat = latL2() + remaining(*line, now);
            if (dirty_fill)
                line->dirty = true;
            fillL1(core, code, addr, dirty_fill, now + lat,
                   FillSource::Demand, now, Level::L2);
            ++hit_ctr[static_cast<int>(Level::L2)];
            return {Level::L2, lat, false};
        }
    }

    // Request crosses the interconnect to the LLC.
    ++stats_.ringTransfers;
    if (CacheLine *line = llc_->lookup(addr)) {
        line->usedSinceFill = true;
        ++stats_.ringTransfers; // data return
        uint64_t lat = latLlc() + remaining(*line, now);
        placeFromLlc(core, code, addr, *line, dirty_fill, now + lat,
                     FillSource::Demand, now, false);
        ++hit_ctr[static_cast<int>(Level::LLC)];
        return {Level::LLC, lat, false};
    }

    // Miss to memory.
    ++stats_.ringTransfers; // data return from the memory controller
    ++stats_.memTransfers;
    uint64_t lat = latLlc() + dram_.read(addr, now + latLlc());
    placeFromMem(core, code, addr, dirty_fill, now + lat,
                 FillSource::Demand, now, false);
    ++hit_ctr[static_cast<int>(Level::Mem)];
    return {Level::Mem, lat, false};
}

void
CacheHierarchy::noteTactUse(CacheLine &line, Cycle now)
{
    if (line.usedSinceFill || line.source != FillSource::TactPf)
        return;
    ++stats_.tactUsefulHits;
    uint64_t rem = remaining(line, now);
    uint64_t llc = latLlc();
    uint64_t saved_pct =
        rem >= llc ? 0 : ((llc - rem) * 100) / llc;
    tactTimeliness_.add(saved_pct);
}

MemResult
CacheHierarchy::load(CoreId core, Addr pc, Addr addr, Cycle now)
{
    ++stats_.loads;

    // Train the baseline L1 stride prefetcher on every demand load.
    if (cfg_.l1StridePrefetcher) {
        if (auto pf = stride_[core].observe(pc, addr)) {
            ++stats_.stridePfIssued;
            prefetchToL1(core, *pf, now, PfKind::Stride);
        }
    }

    if (CacheLine *line = l1d_[core]->lookup(addr)) {
        noteTactUse(*line, now);
        bool tact = line->source == FillSource::TactPf;
        line->usedSinceFill = true;
        uint64_t rem = remaining(*line, now);
        uint64_t lat = latL1() + rem;
        // A hit on a still-in-flight line is really an L1 miss merged
        // into the outstanding fill's MSHR; report the level the fill
        // came from, as the hardware (and the criticality detector)
        // would see it.
        Level served = Level::L1;
        if (rem > 0 && line->fillLevel != Level::None)
            served = line->fillLevel;
        ++stats_.loadHits[static_cast<int>(served)];
        ++stats_.l1HitsBySource[static_cast<int>(line->source)];
        stats_.l1HitWaitBySource[static_cast<int>(line->source)] += rem;

        // Fig 4 oracle: demote L1 hits to L2 latency.
        DemoteMode m = cfg_.oracle.demote;
        if (served == Level::L1 &&
            (m == DemoteMode::L1ToL2All ||
             (m == DemoteMode::L1ToL2NonCrit && !critical(core, pc)))) {
            ++stats_.demotedLoads;
            lat = latL2();
        }
        stats_.totalLoadLatency += lat;
        stats_.totalL1HitLatency += lat;
        return {served, lat, tact};
    }

    // Fig 5 oracle: zero-time critical prefetch of L2/LLC residents.
    if (cfg_.oracle.oraclePrefetch &&
        (cfg_.oracle.oraclePrefetchPcLimit == 0 || critical(core, pc))) {
        if (inL2OrLlc(core, addr)) {
            ++stats_.oracleConverted;
            ++stats_.loadHits[static_cast<int>(Level::L1)];
            fillL1(core, false, addr, false, now, FillSource::OraclePf,
                   now);
            stats_.totalLoadLatency += latL1();
            stats_.totalL1HitLatency += latL1();
            return {Level::L1, latL1(), true};
        }
    }

    MemResult r = serviceMiss(core, false, addr, now, false,
                               stats_.loadHits);

    // Fig 4 oracle: demote L2 / LLC hits one level out.
    DemoteMode m = cfg_.oracle.demote;
    if (r.served == Level::L2 &&
        (m == DemoteMode::L2ToLlcAll ||
         (m == DemoteMode::L2ToLlcNonCrit && !critical(core, pc)))) {
        ++stats_.demotedLoads;
        r.latency = latLlc();
    } else if (r.served == Level::LLC &&
               (m == DemoteMode::LlcToMemAll ||
                (m == DemoteMode::LlcToMemNonCrit &&
                 !critical(core, pc)))) {
        ++stats_.demotedLoads;
        r.latency = latMemEstimate();
    }
    stats_.totalLoadLatency += r.latency;
    return r;
}

void
CacheHierarchy::storeCommit(CoreId core, Addr addr, Cycle now)
{
    ++stats_.storeAccesses;
    if (CacheLine *line = l1d_[core]->lookup(addr)) {
        line->dirty = true;
        line->usedSinceFill = true;
        return;
    }
    ++stats_.storeL1Misses;
    // RFO: bring the line in dirty; the pipeline does not wait for it.
    serviceMiss(core, false, addr, now, true, stats_.rfoHits);
}

MemResult
CacheHierarchy::codeFetch(CoreId core, Addr addr, Cycle now)
{
    ++stats_.codeFetches;
    if (cfg_.oracle.oracleCodeInL1) {
        ++stats_.codeHits[static_cast<int>(Level::L1)];
        return {Level::L1, cfg_.l1i.latency, false};
    }
    if (CacheLine *line = l1i_[core]->lookup(addr)) {
        line->usedSinceFill = true;
        ++stats_.codeHits[static_cast<int>(Level::L1)];
        return {Level::L1, cfg_.l1i.latency + remaining(*line, now),
                false};
    }
    return serviceMiss(core, true, addr, now, false,
                       stats_.codeHits);
}

Level
CacheHierarchy::prefetchToL1(CoreId core, Addr addr, Cycle now,
                             PfKind kind)
{
    bool code = kind == PfKind::TactCode;
    Cache &l1 = code ? *l1i_[core] : *l1d_[core];
    bool is_tact = kind != PfKind::Stride;
    if (is_tact)
        ++stats_.tactPrefetches;
    if (kind == PfKind::TactCode)
        ++stats_.codePfIssued;

    // L1 prefetch requests train the L2 stream prefetcher like demand
    // misses do. This must happen before the L1-residency drop: when
    // another prefetcher already covered the line into the L1, the
    // stream engine still needs to see the address stream or it starves
    // and stops running ahead.
    if (kind == PfKind::Stride)
        streamObserve(core, addr, now);

    if (l1.peek(addr)) {
        if (is_tact)
            ++stats_.tactPfDropped;
        return Level::None;
    }

    FillSource src = kind == PfKind::Stride ? FillSource::StridePf
                     : code ? FillSource::TactCodePf
                            : FillSource::TactPf;

    if (cfg_.hasL2) {
        if (const CacheLine *line = l2_[core]->peek(addr)) {
            uint64_t lat = latL2() + remaining(*line, now);
            fillL1(core, code, addr, false, now + lat, src, now,
                   Level::L2);
            if (is_tact)
                ++stats_.tactPfFromL2;
            return Level::L2;
        }
    }

    ++stats_.ringTransfers; // request
    if (CacheLine *line = llc_->peek(addr)) {
        ++stats_.ringTransfers; // data
        uint64_t lat = latLlc() + remaining(*line, now);
        placeFromLlc(core, code, addr, *line, false, now + lat, src, now,
                     false);
        if (is_tact)
            ++stats_.tactPfFromLlc;
        return Level::LLC;
    }

    if (code) {
        // Code runahead is strictly inter-cache: front-end prefetches
        // that miss the on-die hierarchy are dropped rather than pulled
        // from DRAM (a wrong-path DRAM fetch would be pure pollution).
        ++stats_.tactPfNotOnDie;
        return Level::None;
    }
    ++stats_.ringTransfers; // data return from memory controller
    ++stats_.memTransfers;
    uint64_t lat = latLlc() + dram_.read(addr, now + latLlc());
    placeFromMem(core, code, addr, false, now + lat, src, now, false);
    if (is_tact)
        ++stats_.tactPfFromMem;
    return Level::Mem;
}

void
CacheHierarchy::warmAccess(CoreId core, Addr pc, Addr addr, Cycle now,
                           WarmKind kind)
{
    switch (kind) {
      case WarmKind::Load:
        // Train the stride prefetcher exactly like the demand path so
        // warmed cache contents reflect its fills.
        if (cfg_.l1StridePrefetcher) {
            if (auto pf = stride_[core].observe(pc, addr))
                warmPrefetch(core, *pf, PfKind::Stride, now);
        }
        if (CacheLine *line = l1d_[core]->warmLookup(addr)) {
            line->usedSinceFill = true;
            return;
        }
        warmMiss(core, false, addr, now, false);
        return;
      case WarmKind::Store:
        if (CacheLine *line = l1d_[core]->warmLookup(addr)) {
            line->dirty = true;
            line->usedSinceFill = true;
            return;
        }
        // RFO write-allocate, dirty on arrival.
        warmMiss(core, false, addr, now, true);
        return;
      case WarmKind::Code:
        if (CacheLine *line = l1i_[core]->warmLookup(addr)) {
            line->usedSinceFill = true;
            return;
        }
        warmMiss(core, true, addr, now, false);
        return;
    }
}

Level
CacheHierarchy::warmPrefetch(CoreId core, Addr addr, PfKind kind,
                             Cycle now)
{
    CATCHSIM_ASSERT(kind != PfKind::TactCode,
                    "code runahead has no warm prefetch");
    if (kind == PfKind::Stride)
        warmStreamObserve(core, addr, now);
    if (l1d_[core]->peek(addr))
        return Level::None;
    FillSource src = kind == PfKind::Stride ? FillSource::StridePf
                                            : FillSource::TactPf;
    if (cfg_.hasL2 && l2_[core]->peek(addr)) {
        fillL1(core, false, addr, false, 0, src, now, Level::L2, true);
        return Level::L2;
    }
    if (CacheLine *line = llc_->peek(addr)) {
        placeFromLlc(core, false, addr, *line, false, 0, src, now, true);
        return Level::LLC;
    }
    placeFromMem(core, false, addr, false, 0, src, now, true);
    return Level::Mem;
}

Cycle
CacheHierarchy::probeDataReady(CoreId core, Addr addr, Cycle now) const
{
    if (const CacheLine *line = l1d_[core]->peek(addr))
        return now + cfg_.l1d.latency + remaining(*line, now);
    if (cfg_.hasL2)
        if (const CacheLine *line = l2_[core]->peek(addr))
            return now + latL2() + remaining(*line, now);
    if (const CacheLine *line = llc_->peek(addr))
        return now + latLlc() + remaining(*line, now);
    return now + levelLatency(Level::Mem);
}

bool
CacheHierarchy::inL2OrLlc(CoreId core, Addr addr) const
{
    if (cfg_.hasL2 && l2_[core]->peek(addr))
        return true;
    return llc_->peek(addr) != nullptr;
}

bool
CacheHierarchy::residentIn(CoreId core, Addr addr, Level level) const
{
    switch (level) {
      case Level::L1:
        return l1d_[core]->peek(addr) != nullptr;
      case Level::L2:
        return cfg_.hasL2 && l2_[core]->peek(addr) != nullptr;
      case Level::LLC:
        return llc_->peek(addr) != nullptr;
      default:
        return false;
    }
}

} // namespace catchsim

#include "cache/cache.hh"

#include <utility>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace catchsim
{

Cache::Cache(std::string name, const CacheGeometry &geom)
    : name_(std::move(name)), geom_(geom), numSets_(geom.numSets()),
      lines_(static_cast<size_t>(numSets_) * geom.ways)
{
    CATCHSIM_ASSERT(isPowerOfTwo(numSets_), name_, ": sets not pow2");
}

const CacheLine *
Cache::row(Addr addr) const
{
    uint32_t set = static_cast<uint32_t>((addr >> kLineShift) &
                                         (numSets_ - 1));
    return &lines_[static_cast<size_t>(set) * geom_.ways];
}

CacheLine *
Cache::row(Addr addr)
{
    return const_cast<CacheLine *>(std::as_const(*this).row(addr));
}

CacheLine *
Cache::lookup(Addr addr)
{
    ++stats_.demandAccesses;
    ++stats_.readOps;
    CacheLine *line = peek(addr);
    if (line) {
        ++stats_.demandHits;
        touch(*line);
        // usedSinceFill is managed by the hierarchy, which needs to
        // observe the first use of a prefetched line.
    }
    return line;
}

CacheLine *
Cache::warmLookup(Addr addr)
{
    CacheLine *line = peek(addr);
    if (line)
        touch(*line);
    return line;
}

const CacheLine *
Cache::peek(Addr addr) const
{
    Addr tag = lineAddr(addr);
    const CacheLine *r = row(addr);
    for (uint32_t w = 0; w < geom_.ways; ++w)
        if (r[w].valid && r[w].tag == tag)
            return &r[w];
    return nullptr;
}

CacheLine *
Cache::peek(Addr addr)
{
    return const_cast<CacheLine *>(std::as_const(*this).peek(addr));
}

Cache::Victim
Cache::fill(Addr addr, bool dirty, Cycle ready_at, FillSource source,
            Level fill_level)
{
    return fillImpl(addr, dirty, ready_at, source, fill_level, true);
}

Cache::Victim
Cache::warmFill(Addr addr, bool dirty, FillSource source, Level fill_level)
{
    // ready_at = 0: warmed lines are immediately ready; the per-window
    // detailed warmup re-establishes realistic in-flight timing.
    return fillImpl(addr, dirty, 0, source, fill_level, false);
}

Cache::Victim
Cache::fillImpl(Addr addr, bool dirty, Cycle ready_at, FillSource source,
                Level fill_level, bool count)
{
    Addr tag = lineAddr(addr);
    CacheLine *r = row(addr);
    if (count)
        ++stats_.writeOps; // catch-analyze: allow(warming-purity)

    // One scan: the resident copy (merge), else the first invalid way,
    // else the least recently used way (the lowest on a tie).
    CacheLine *free_way = nullptr;
    CacheLine *lru = nullptr;
    for (uint32_t w = 0; w < geom_.ways; ++w) {
        CacheLine &l = r[w];
        if (!l.valid) {
            if (!free_way)
                free_way = &l;
            continue;
        }
        if (l.tag == tag) {
            // Merge (e.g. a writeback landing on a prefetched copy, or a
            // duplicate fill).
            l.dirty |= dirty;
            if (ready_at < l.readyAt)
                l.readyAt = ready_at;
            // A demand or writeback fill landing on a prefetched copy
            // proves the line was wanted: take over its provenance so a
            // later eviction is not misattributed to a useless
            // prefetch (and the evicting level sees the true source).
            bool resident_is_prefetch = l.source != FillSource::Demand &&
                                        l.source != FillSource::Writeback;
            bool incoming_is_real = source == FillSource::Demand ||
                                    source == FillSource::Writeback;
            if (resident_is_prefetch && incoming_is_real) {
                l.source = source;
                l.fillLevel = fill_level;
            }
            touch(l);
            return Victim{};
        }
        if (!lru || l.stamp < lru->stamp)
            lru = &l;
    }

    Victim victim;
    if (!free_way) {
        CacheLine &v = *lru;
        victim.valid = true;
        victim.addr = v.tag;
        victim.dirty = v.dirty;
        victim.source = v.source;
        victim.usedSinceFill = v.usedSinceFill;
        if (count) {
            ++stats_.evictions; // catch-analyze: allow(warming-purity)
            if (v.dirty) {
                // catch-analyze: allow(warming-purity)
                ++stats_.dirtyEvictions;
            }
            bool was_prefetch = v.source != FillSource::Demand &&
                                v.source != FillSource::Writeback;
            if (was_prefetch && !v.usedSinceFill) {
                // catch-analyze: allow(warming-purity)
                ++stats_.uselessPrefetchEvictions;
            }
        }
    }

    CacheLine &line = free_way ? *free_way : *lru;
    line.tag = tag;
    line.valid = true;
    line.dirty = dirty;
    line.readyAt = ready_at;
    line.source = source;
    line.fillLevel = fill_level;
    line.usedSinceFill = false;
    touch(line);
    if (count)
        ++stats_.fills; // catch-analyze: allow(warming-purity)
    return victim;
}

bool
Cache::invalidate(Addr addr, bool *was_present, bool count)
{
    CacheLine *line = peek(addr);
    if (was_present)
        *was_present = line != nullptr;
    return line && invalidate(*line, count);
}

bool
Cache::invalidate(CacheLine &line, bool count)
{
    line.valid = false;
    if (count) {
        // catch-analyze: allow(warming-purity)
        ++stats_.invalidations;
    }
    return line.dirty;
}

void
Cache::saveWarmState(StateSink &sink) const
{
    sink.tag(stateTag("CACH"));
    sink.u64(lines_.size());
    for (const CacheLine &line : lines_) {
        sink.u64(line.tag);
        sink.boolean(line.valid);
        sink.boolean(line.dirty);
        sink.u64(line.readyAt);
        sink.u8(static_cast<uint8_t>(line.source));
        sink.u8(static_cast<uint8_t>(line.fillLevel));
        sink.boolean(line.usedSinceFill);
    }
    // Recency follows the lines as its own RLRU record: the clock, then
    // every line's stamp in line order.
    sink.tag(stateTag("RLRU"));
    sink.u64(clock_);
    sink.u64(lines_.size());
    for (const CacheLine &line : lines_)
        sink.u64(line.stamp);
}

bool
Cache::loadWarmState(StateSource &src)
{
    if (!src.expect(stateTag("CACH")))
        return false;
    if (src.u64() != lines_.size() || !src.fits(lines_.size() * 21))
        return false;
    for (CacheLine &line : lines_) {
        line.tag = src.u64();
        line.valid = src.boolean();
        line.dirty = src.boolean();
        line.readyAt = src.u64();
        line.source = static_cast<FillSource>(src.u8());
        line.fillLevel = static_cast<Level>(src.u8());
        line.usedSinceFill = src.boolean();
    }
    if (!src.ok() || !src.expect(stateTag("RLRU")))
        return false;
    uint64_t clock = src.u64();
    if (src.u64() != lines_.size() || !src.fits(lines_.size() * 8))
        return false;
    clock_ = clock;
    for (CacheLine &line : lines_)
        line.stamp = src.u64();
    return src.ok();
}

} // namespace catchsim

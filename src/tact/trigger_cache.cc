#include "tact/trigger_cache.hh"

#include "common/bitutil.hh"

namespace catchsim
{

TriggerCache::TriggerCache(const TactConfig &cfg)
    : cfg_(cfg), sets_(cfg.triggerCacheSets), ways_(cfg.triggerCacheWays),
      entries_(static_cast<size_t>(sets_) * ways_)
{
}

uint32_t
TriggerCache::setOf(Addr page) const
{
    return static_cast<uint32_t>(mix64(page) & (sets_ - 1));
}

void
TriggerCache::onLoad(Addr pc, Addr addr)
{
    ++clock_;
    Addr page = pageAddr(addr);
    Entry *row = &entries_[static_cast<size_t>(setOf(page)) * ways_];
    Entry *lru = &row[0];
    for (uint32_t w = 0; w < ways_; ++w) {
        Entry &e = row[w];
        if (e.valid && e.page == page) {
            e.lastUse = clock_;
            if (e.numPcs < cfg_.triggerPcsPerPage) {
                for (uint32_t i = 0; i < e.numPcs; ++i)
                    if (e.pcs[i] == pc)
                        return;
                e.pcs[e.numPcs++] = pc;
            }
            return;
        }
        if (!e.valid) {
            lru = &e;
            break;
        }
        if (e.lastUse < lru->lastUse)
            lru = &e;
    }
    *lru = Entry{};
    lru->valid = true;
    lru->page = page;
    lru->pcs[0] = pc;
    lru->numPcs = 1;
    lru->lastUse = clock_;
}

std::vector<Addr>
TriggerCache::candidates(Addr addr) const
{
    Addr page = pageAddr(addr);
    const Entry *row = &entries_[static_cast<size_t>(setOf(page)) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
        const Entry &e = row[w];
        if (e.valid && e.page == page)
            return {e.pcs.begin(), e.pcs.begin() + e.numPcs};
    }
    return {};
}

template <typename IO, typename Self>
void
TriggerCache::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("TRGC"));
    io.match(s.entries_.size());
    for (auto &e : s.entries_) {
        io.boolean(e.valid);
        io.u64(e.page);
        for (auto &pc : e.pcs)
            io.u64(pc);
        io.u32(e.numPcs);
        io.require(e.numPcs <= e.pcs.size());
        io.u64(e.lastUse);
    }
    io.u64(s.clock_);
}

void
TriggerCache::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
TriggerCache::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

} // namespace catchsim

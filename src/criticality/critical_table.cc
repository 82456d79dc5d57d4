#include "criticality/critical_table.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace catchsim
{

CriticalTable::CriticalTable(const CriticalityConfig &cfg)
    : cfg_(cfg), numSets_(cfg.tableEntries / cfg.tableWays),
      confMax_((1u << cfg.confidenceBits) - 1),
      entries_(cfg.tableEntries)
{
    CATCHSIM_ASSERT(cfg.tableEntries % cfg.tableWays == 0,
                    "table entries must divide into ways");
    CATCHSIM_ASSERT(isPowerOfTwo(numSets_), "table sets must be pow2");
}

uint32_t
CriticalTable::setOf(Addr pc) const
{
    return static_cast<uint32_t>(mix64(pc) & (numSets_ - 1));
}

void
CriticalTable::record(Addr pc)
{
    ++stats_.recordings;
    ++clock_;
    Entry *row = &entries_[static_cast<size_t>(setOf(pc)) * cfg_.tableWays];
    Entry *lru = &row[0];
    for (uint32_t w = 0; w < cfg_.tableWays; ++w) {
        Entry &e = row[w];
        if (e.valid && e.pc == pc) {
            if (e.confidence < confMax_)
                ++e.confidence;
            e.lastUse = clock_;
            return;
        }
        if (!e.valid) {
            lru = &e;
            break;
        }
        if (e.lastUse < lru->lastUse)
            lru = &e;
    }
    if (lru->valid)
        ++stats_.evictions;
    ++stats_.insertions;
    lru->valid = true;
    lru->pc = pc;
    lru->confidence = 1;
    lru->lastUse = clock_;
}

bool
CriticalTable::isCritical(Addr pc) const
{
    ++stats_.queries;
    const Entry *row =
        &entries_[static_cast<size_t>(setOf(pc)) * cfg_.tableWays];
    for (uint32_t w = 0; w < cfg_.tableWays; ++w) {
        if (row[w].valid && row[w].pc == pc &&
            row[w].confidence >= confMax_) {
            ++stats_.queryHits;
            return true;
        }
    }
    return false;
}

void
CriticalTable::tick(uint64_t retired_instrs)
{
    if (retired_instrs - lastReset_ < cfg_.confResetInterval)
        return;
    lastReset_ = retired_instrs;
    ++stats_.confidenceResets;
    // PCs that never reached saturation forget their progress and must
    // re-learn (Section IV-A).
    for (auto &e : entries_)
        if (e.valid && e.confidence < confMax_)
            e.confidence = 0;
}

template <typename IO, typename Self>
void
CriticalTable::warmFields(IO &io, Self &s)
{
    io.tag(stateTag("CRIT"));
    io.match(s.entries_.size());
    for (auto &e : s.entries_) {
        io.boolean(e.valid);
        io.u64(e.pc);
        io.u32(e.confidence);
        io.u64(e.lastUse);
    }
    io.u64(s.clock_);
    io.u64(s.lastReset_);
    io.u64(s.stats_.recordings);
    io.u64(s.stats_.insertions);
    io.u64(s.stats_.evictions);
    io.u64(s.stats_.confidenceResets);
    io.u64(s.stats_.queries);
    io.u64(s.stats_.queryHits);
}

void
CriticalTable::saveWarmState(StateSink &sink) const
{
    warmFields(sink, *this);
}

bool
CriticalTable::loadWarmState(StateSource &src)
{
    warmFields(src, *this);
    return src.ok();
}

uint32_t
CriticalTable::activeCount() const
{
    uint32_t n = 0;
    for (const auto &e : entries_)
        if (e.valid && e.confidence >= confMax_)
            ++n;
    return n;
}

} // namespace catchsim

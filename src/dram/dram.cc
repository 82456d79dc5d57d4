#include "dram/dram.hh"

#include <algorithm>

namespace catchsim
{

Dram::Dram(const DramConfig &cfg) : cfg_(cfg)
{
    uint32_t nbanks = cfg.channels * cfg.ranksPerChannel * cfg.banksPerRank;
    banks_.resize(nbanks);
    for (uint32_t b = 0; b < nbanks; ++b)
        bankCal_.emplace_back();
    for (uint32_t c = 0; c < cfg.channels; ++c) {
        busCal_.emplace_back();
        channels_.push_back(Channel{});
        channels_.back().writeQueue.reserve(cfg.writeQueueDepth);
    }
    // Stagger per-rank refresh phases as controllers do.
    uint32_t ranks = cfg.channels * cfg.ranksPerChannel;
    for (uint32_t r = 0; r < ranks; ++r)
        rankRefreshAt_.push_back(cfg.tRefi * (r + 1) / (ranks + 1));
}

uint32_t
Dram::rankIndex(Addr addr) const
{
    return bankIndex(addr) / cfg_.banksPerRank;
}

Cycle
Dram::afterRefresh(uint32_t rank, Cycle now)
{
    // Advance the rank's refresh schedule up to `now`; an access landing
    // inside the blackout waits for its end.
    Cycle &next = rankRefreshAt_[rank];
    while (next + cfg_.tRfc <= now)
        next += cfg_.tRefi;
    if (now >= next) {
        ++stats_.refreshStalls;
        return next + cfg_.tRfc;
    }
    return now;
}

uint32_t
Dram::channelIndex(Addr addr) const
{
    // Channel interleaving at line granularity spreads streams.
    return (addr >> kLineShift) & (cfg_.channels - 1);
}

uint32_t
Dram::bankIndex(Addr addr) const
{
    uint32_t banks_per_channel = cfg_.ranksPerChannel * cfg_.banksPerRank;
    // Bank bits above the row-offset bits so a stream stays in one row.
    uint64_t bank_in_ch =
        (addr / (cfg_.rowBytes * cfg_.channels)) % banks_per_channel;
    return channelIndex(addr) * banks_per_channel +
           static_cast<uint32_t>(bank_in_ch);
}

Addr
Dram::rowOf(Addr addr) const
{
    return addr / (cfg_.rowBytes * cfg_.channels *
                   cfg_.ranksPerChannel * cfg_.banksPerRank);
}

Cycle
Dram::access(Addr addr, Cycle now)
{
    now = afterRefresh(rankIndex(addr), now);
    uint32_t b = bankIndex(addr);
    Bank &bank = banks_[b];
    Addr row = rowOf(addr);

    // tCCD-style spacing for open-row column commands; precharge +
    // activate occupancy for row misses.
    Cycle data_at;
    if (bank.openRow == row) {
        ++stats_.rowHits;
        Cycle issue = bankCal_[b].schedule(now, cfg_.burstCycles);
        stats_.totalBankWait += issue - now;
        data_at = issue + cfg_.tCas;
    } else {
        ++stats_.rowMisses;
        ++stats_.activates;
        // Precharge cannot begin before tRAS from the prior activate.
        Cycle earliest = now;
        if (bank.openRow != Bank::kNoRow &&
            bank.activatedAt + cfg_.tRas > earliest)
            earliest = bank.activatedAt + cfg_.tRas;
        Cycle issue = bankCal_[b].schedule(earliest,
                                           cfg_.tRp + cfg_.tRcd);
        stats_.totalBankWait += issue - now;
        Cycle activated = issue + cfg_.tRp;
        if (activated > bank.activatedAt)
            bank.activatedAt = activated;
        data_at = activated + cfg_.tRcd + cfg_.tCas;
        bank.openRow = row;
    }

    // The data burst occupies the channel bus.
    uint32_t ch = channelIndex(addr);
    Cycle burst = busCal_[ch].schedule(data_at, cfg_.burstCycles);
    stats_.totalBusWait += burst - data_at;
    return burst + cfg_.burstCycles;
}

uint64_t
Dram::read(Addr addr, Cycle now)
{
    uint32_t ch = channelIndex(addr);
    maybeDrainWrites(ch, now, false);
    Cycle done = access(addr, now + cfg_.controllerLat);
    uint64_t lat = done - now;
    ++stats_.reads;
    stats_.totalReadLatency += lat;
    return lat;
}

void
Dram::write(Addr addr, Cycle now)
{
    uint32_t ch = channelIndex(addr);
    ++stats_.writes;
    // Bounded by writeQueueDepth, whose capacity is reserved at
    // construction: a full queue forces a drain, and validate() rejects
    // a drain batch of zero.
    // catch-analyze: allow(step-alloc)
    channels_[ch].writeQueue.push_back(addr);
    maybeDrainWrites(ch, now, channels_[ch].writeQueue.size() >=
                                  cfg_.writeQueueDepth);
}

void
Dram::maybeDrainWrites(uint32_t channel, Cycle now, bool force)
{
    Channel &ch = channels_[channel];
    if (!force && ch.writeQueue.size() < cfg_.writeDrainWatermark)
        return;
    ++stats_.writeDrains;
    uint32_t n = std::min<uint32_t>(cfg_.writeDrainBatch,
                                    static_cast<uint32_t>(
                                        ch.writeQueue.size()));
    for (uint32_t i = 0; i < n; ++i)
        access(ch.writeQueue[i], now);
    ch.writeQueue.erase(ch.writeQueue.begin(), ch.writeQueue.begin() + n);
}

} // namespace catchsim

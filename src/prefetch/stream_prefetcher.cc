#include "prefetch/stream_prefetcher.hh"

namespace catchsim
{

StreamPrefetcher::StreamPrefetcher(uint32_t entries, uint32_t degree)
    : streamPages_(entries, kNoPage), train_(entries), prev_(entries, kNil),
      next_(entries, kNil), degree_(degree)
{
}

uint32_t
StreamPrefetcher::find(Addr page) const
{
    uint32_t n = static_cast<uint32_t>(streamPages_.size());
    for (uint32_t i = 0; i < n; ++i)
        if (streamPages_[i] == page)
            return i;
    return n;
}

uint32_t
StreamPrefetcher::allocate()
{
    // Slots fill in index order and are never invalidated, so "first
    // never-used slot" is just the fill count; afterwards the victim is
    // the recency-list tail, matching the minimum-timestamp scan this
    // replaced (timestamps were unique, so order was total).
    if (filled_ < streamPages_.size()) {
        uint32_t i = filled_++;
        prev_[i] = kNil;
        next_[i] = head_;
        if (head_ != kNil)
            prev_[head_] = i;
        head_ = i;
        if (tail_ == kNil)
            tail_ = i;
        return i;
    }
    uint32_t i = tail_;
    touch(i);
    return i;
}

void
StreamPrefetcher::touch(uint32_t i)
{
    if (head_ == i)
        return;
    // Unlink (i is not the head, so prev_[i] is valid).
    next_[prev_[i]] = next_[i];
    if (next_[i] != kNil)
        prev_[next_[i]] = prev_[i];
    else
        tail_ = prev_[i];
    // Relink at the head.
    prev_[i] = kNil;
    next_[i] = head_;
    prev_[head_] = i;
    head_ = i;
}

void
StreamPrefetcher::observe(Addr addr, std::vector<Addr> &out)
{
    Addr page = pageAddr(addr);
    int32_t line = static_cast<int32_t>((addr - page) >> kLineShift);
    uint32_t i = find(page);
    if (i == streamPages_.size()) {
        i = allocate();
        streamPages_[i] = page;
        train_[i] = Train{line, 0, 0};
        return;
    }
    touch(i);
    Train &t = train_[i];
    int32_t delta = line - t.lastLine;
    if (delta == 0)
        return;
    int32_t dir = delta > 0 ? 1 : -1;
    if (t.direction == dir) {
        if (t.confirms < 16)
            ++t.confirms;
    } else {
        t.direction = dir;
        t.confirms = 1;
    }
    t.lastLine = line;
    if (t.confirms < 2)
        return;

    // Confirmed stream: prefetch degree_ lines ahead within the page.
    for (uint32_t k = 1; k <= degree_; ++k) {
        int32_t target = line + dir * static_cast<int32_t>(k);
        if (target < 0 || target > 63)
            break;
        // Bounded by degree_; the caller's scratch vector is reserved
        // once at construction and keeps its capacity across calls.
        // catch-analyze: allow(step-alloc)
        out.push_back(page + static_cast<Addr>(target) * kLineBytes);
        ++issued_;
    }
}

void
StreamPrefetcher::saveWarmState(StateSink &sink) const
{
    sink.tag(stateTag("STRM"));
    sink.u64(streamPages_.size());
    for (Addr p : streamPages_)
        sink.u64(p);
    for (const Train &t : train_) {
        sink.u32(static_cast<uint32_t>(t.lastLine));
        sink.u32(static_cast<uint32_t>(t.direction));
        sink.u32(t.confirms);
    }
    for (uint32_t p : prev_)
        sink.u32(p);
    for (uint32_t n : next_)
        sink.u32(n);
    sink.u32(head_);
    sink.u32(tail_);
    sink.u32(filled_);
    sink.u64(issued_);
}

bool
StreamPrefetcher::loadWarmState(StateSource &src)
{
    if (!src.expect(stateTag("STRM")))
        return false;
    if (src.u64() != streamPages_.size() || !src.fits(streamPages_.size() * 28))
        return false;
    for (Addr &p : streamPages_)
        p = src.u64();
    for (Train &t : train_) {
        t.lastLine = static_cast<int32_t>(src.u32());
        t.direction = static_cast<int32_t>(src.u32());
        t.confirms = src.u32();
    }
    for (uint32_t &p : prev_)
        p = src.u32();
    for (uint32_t &n : next_)
        n = src.u32();
    head_ = src.u32();
    tail_ = src.u32();
    filled_ = src.u32();
    issued_ = src.u64();
    return src.ok();
}

} // namespace catchsim

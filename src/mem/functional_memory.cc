#include "mem/functional_memory.hh"

#include <algorithm>

namespace catchsim
{

/**
 * Slow write path: resolves (and if necessary clones) the page, then
 * write-validates the translation. A use_count() of 1 means no
 * snapshot or sibling run holds this page, so in-place mutation is
 * safe: the count can only grow through an existing handle, and the
 * only other handle sources (the snapshot store, a published image)
 * copy under their own locks from handles they already own.
 */
FunctionalMemory::Page *
FunctionalMemory::writablePage(Addr page)
{
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        it = pages_.emplace(page, std::make_shared<Page>()).first;
    } else if (it->second.use_count() > 1) {
        // Copy-on-write: the page is shared with a snapshot image;
        // clone it so the snapshot stays bitwise-frozen.
        it->second = std::make_shared<Page>(*it->second);
    }
    TlbEntry &e = tlb_[tlbIndex(page)];
    e.page = page;
    e.wpage = page;
    e.data = it->second.get();
    return e.data;
}

const FunctionalMemory::Page *
FunctionalMemory::pageForConst(Addr addr) const
{
    Addr page = pageAddr(addr);
    TlbEntry &e = tlb_[tlbIndex(page)];
    if (e.page == page)
        return e.data;
    auto it = pages_.find(page);
    if (it == pages_.end())
        return nullptr; // missing pages are not cached: they read as 0
    e.page = page;
    // Read-only refill: the entry may be repurposed from another page,
    // whose write validity must not leak onto this one.
    e.wpage = ~Addr(0);
    e.data = it->second.get();
    return e.data;
}

uint64_t
FunctionalMemory::read(Addr addr) const
{
    const Page *p = pageForConst(addr);
    if (!p)
        return 0; // untouched memory reads as zero
    return p->words[(addr & (kPageBytes - 1)) >> 3];
}

void
FunctionalMemory::write(Addr addr, uint64_t value)
{
    Addr page = pageAddr(addr);
    TlbEntry &e = tlb_[tlbIndex(page)];
    Page *p = e.wpage == page ? e.data : writablePage(page);
    p->words[(addr & (kPageBytes - 1)) >> 3] = value;
}

FunctionalMemory::PageImage
FunctionalMemory::snapshotPages() const
{
    PageImage image;
    image.reserve(pages_.size());
    // catch-analyze: allow(unordered-iter) entries are sorted below
    for (const auto &kv : pages_)
        image.emplace_back(kv.first, kv.second);
    std::sort(image.begin(), image.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    // Every page is now shared with the image: drop write validity so
    // the next write per page funnels through the clone check. Read
    // translations stay cached — sharing moves no page.
    for (auto &e : tlb_)
        e.wpage = ~Addr(0);
    return image;
}

void
FunctionalMemory::restorePages(const PageImage &image)
{
    pages_.clear();
    pages_.reserve(image.size());
    for (const auto &kv : image)
        pages_.emplace(kv.first, kv.second);
    // The old map's pages are gone; every cached translation is stale.
    for (auto &e : tlb_)
        e = TlbEntry();
}

} // namespace catchsim

#include "mem/functional_memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace catchsim
{

const FunctionalMemory::Page *
FunctionalMemory::lookup(Addr page) const
{
    Page *data = nullptr;
    if (auto it = pages_.find(page); it != pages_.end()) {
        data = it->second.get();
    } else if (base_) {
        if (auto b = base_->find(page); b != base_->end())
            data = b->second.get();
    }
    if (!data)
        return nullptr; // missing pages are not cached: they read as 0
    TlbEntry &e = tlb_[tlbIndex(page)];
    e.page = page;
    // Read-only refill: the entry may be repurposed from another page,
    // whose write validity must not leak onto this one.
    e.wpage = ~Addr(0);
    e.data = data;
    tlbCold_ = false;
    return data;
}

/**
 * A use_count() of 1 means no snapshot or sibling run holds this
 * private page, so in-place mutation is safe: the count can only grow
 * through an existing handle, and the only other handle sources (the
 * snapshot store, a published image) copy under their own locks from
 * handles they already own. Base pages are never written.
 */
FunctionalMemory::Page *
FunctionalMemory::writablePage(Addr page)
{
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        const Page *below = nullptr;
        if (base_)
            if (auto b = base_->find(page); b != base_->end())
                below = b->second.get();
        // The first write to a base page clones it into the private
        // layer; the base stays frozen for every other adopter.
        it = pages_
                 .emplace(page, below ? std::make_shared<Page>(*below)
                                      : std::make_shared<Page>())
                 .first;
        shadowed_ += below != nullptr;
    } else if (it->second.use_count() > 1) {
        // Copy-on-write: the page is shared with a snapshot image;
        // clone it so the snapshot stays bitwise-frozen.
        it->second = std::make_shared<Page>(*it->second);
    }
    TlbEntry &e = tlb_[tlbIndex(page)];
    e.page = page;
    e.wpage = page;
    e.data = it->second.get();
    tlbCold_ = false;
    return e.data;
}

void
FunctionalMemory::clearTlb()
{
    if (tlbCold_)
        return;
    for (auto &e : tlb_)
        e = TlbEntry();
    tlbCold_ = true;
}

FunctionalMemory::PageImage
FunctionalMemory::snapshotPages() const
{
    PageImage image;
    image.reserve(pagesAllocated());
    // catch-analyze: allow(unordered-iter) entries are sorted below
    for (const auto &kv : pages_)
        image.emplace_back(kv.first, kv.second);
    if (base_) {
        // Unordered too: sorted below with the private pages.
        for (const auto &kv : *base_)
            if (!shadowed_ || !pages_.count(kv.first))
                image.emplace_back(kv.first, kv.second);
    }
    std::sort(image.begin(), image.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    // Every private page is now shared with the image: drop write
    // validity so the next write per page funnels through the clone
    // check. Read translations stay cached — sharing moves no page.
    for (auto &e : tlb_)
        e.wpage = ~Addr(0);
    return image;
}

void
FunctionalMemory::restorePages(const PageImage &image)
{
    base_.reset();
    shadowed_ = 0;
    pages_.clear();
    pages_.reserve(image.size());
    for (const auto &kv : image)
        pages_.emplace(kv.first, kv.second);
    // The old layers' pages are gone; every cached translation is stale.
    clearTlb();
}

FunctionalMemory::BasePtr
FunctionalMemory::publishBase()
{
    CATCHSIM_ASSERT(!base_, "publishBase() over an existing base layer");
    auto base = std::make_shared<const PageMap>(std::move(pages_));
    pages_ = PageMap();
    base_ = base;
    // The pages moved into the immutable base: none is writable here
    // any more. Read translations still point at the same pages.
    for (auto &e : tlb_)
        e.wpage = ~Addr(0);
    return base;
}

void
FunctionalMemory::adoptBase(BasePtr base)
{
    base_ = std::move(base);
    shadowed_ = 0;
    pages_.clear();
    clearTlb();
}

} // namespace catchsim

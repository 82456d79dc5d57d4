#include "mem/functional_memory.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"

namespace catchsim
{

namespace
{

/** A private copy of @p page, in its own form. */
FunctionalMemory::PagePtr
clonePage(const FunctionalMemory::Page &page)
{
    if (page.sparse())
        return std::make_shared<FunctionalMemory::SparsePage>(
            static_cast<const FunctionalMemory::SparsePage &>(page));
    return std::make_shared<FunctionalMemory::DensePage>(
        static_cast<const FunctionalMemory::DensePage &>(page));
}

} // namespace

// --- page forms ---------------------------------------------------------

bool
FunctionalMemory::SparsePage::set(size_t i, uint64_t v)
{
    const size_t k = slot(i);
    if (k < count) {
        if (v) {
            values[k] = v;
        } else {
            // Keep only nonzero words: move the last entry into the gap.
            --count;
            offsets[k] = offsets[count];
            values[k] = values[count];
        }
        return true;
    }
    if (!v)
        return true; // an absent word already reads 0
    if (count == kSparseWords)
        return false;
    offsets[count] = static_cast<uint16_t>(i);
    values[count] = v;
    ++count;
    return true;
}

void
FunctionalMemory::Page::copyTo(void *out) const
{
    if (!sparse_) {
        std::memcpy(out, static_cast<const DensePage *>(this)->words,
                    kPageBytes);
        return;
    }
    const auto *sp = static_cast<const SparsePage *>(this);
    auto *bytes = static_cast<uint8_t *>(out);
    std::memset(bytes, 0, kPageBytes);
    for (size_t k = 0; k < sp->count; ++k)
        std::memcpy(bytes + sp->offsets[k] * sizeof(uint64_t),
                    &sp->values[k], sizeof(uint64_t));
}

// --- translation --------------------------------------------------------

void
FunctionalMemory::fill(Addr page, Page *p, bool writable) const
{
    TlbEntry &e = tlb_[tlbIndex(page)];
    e.page = p->sparse() ? page | kSparseTag : page;
    // A read-only refill may repurpose the entry from another page,
    // whose write validity must not leak onto this one.
    e.wpage = writable ? e.page : ~Addr(0);
    e.data = p;
    tlbCold_ = false;
}

FunctionalMemory::Page *
FunctionalMemory::lookup(Addr page) const
{
    Page *data = nullptr;
    if (auto it = pages_.find(page); it != pages_.end()) {
        data = it->second.get();
    } else if (base_) {
        if (auto b = base_->pages.find(page); b != base_->pages.end())
            data = b->second.get();
    }
    if (data) // missing pages are not cached: they read as 0
        fill(page, data, false);
    return data;
}

uint64_t
FunctionalMemory::readSlow(Addr addr) const
{
    const Addr page = pageAddr(addr);
    const TlbEntry &e = tlb_[tlbIndex(page)];
    if (e.page == (page | kSparseTag))
        return sparse(e.data)->get(wordIndex(addr));
    const Page *p = lookup(page);
    return p ? p->word(wordIndex(addr)) : 0;
}

/**
 * A use_count() of 1 means no snapshot or sibling run holds this
 * private page, so in-place mutation is safe: the count can only grow
 * through an existing handle, and the only other handle sources (the
 * snapshot store, a published image) copy under their own locks from
 * handles they already own. Base pages are never written.
 */
FunctionalMemory::PagePtr *
FunctionalMemory::ownPage(Addr page, size_t i, uint64_t value)
{
    // 0 over a word a sparse page does not hold stores nothing, so it
    // neither clones a shared page nor dirties a base one.
    auto storesNothing = [i, value](Page *p) {
        return !value && p->sparse() && !sparse(p)->holds(i);
    };
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        Page *below = nullptr;
        if (base_)
            if (auto b = base_->pages.find(page); b != base_->pages.end())
                below = b->second.get();
        if (below && storesNothing(below)) {
            fill(page, below, false);
            return nullptr;
        }
        // The first write to a base page clones it into the private
        // layer; the base stays frozen for every other adopter. A page
        // new to both layers starts sparse and empty.
        it = pages_
                 .emplace(page, below ? clonePage(*below)
                                      : std::make_shared<SparsePage>())
                 .first;
        shadowed_ += below != nullptr;
        privateBytes_ += it->second->bytes();
    } else if (it->second.use_count() > 1) {
        if (storesNothing(it->second.get())) {
            fill(page, it->second.get(), false);
            return nullptr;
        }
        // Copy-on-write: the page is shared with a snapshot image;
        // clone it so the snapshot stays bitwise-frozen.
        it->second = clonePage(*it->second);
    }
    fill(page, it->second.get(), true);
    return &it->second;
}

void
FunctionalMemory::writeSlow(Addr addr, uint64_t value)
{
    const Addr page = pageAddr(addr);
    const size_t i = wordIndex(addr);
    const TlbEntry &e = tlb_[tlbIndex(page)];
    if (e.page == (page | kSparseTag)) {
        // A cached sparse page: see ownPage for the 0 case.
        if (!value && !sparse(e.data)->holds(i))
            return;
        if (e.wpage == e.page && sparse(e.data)->set(i, value))
            return;
    }
    PagePtr *handle = ownPage(page, i, value);
    if (!handle)
        return;
    if ((*handle)->sparse()) {
        SparsePage *sp = sparse(handle->get());
        if (sp->set(i, value))
            return;
        // The first word past kSparseWords promotes the page for good.
        auto d = std::make_shared<DensePage>();
        for (size_t k = 0; k < sp->count; ++k)
            d->words[sp->offsets[k]] = sp->values[k];
        privateBytes_ += sizeof(DensePage) - sizeof(SparsePage);
        *handle = std::move(d);
        fill(page, handle->get(), true);
    }
    dense(handle->get())->words[i] = value;
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

// --- layers -------------------------------------------------------------

FunctionalMemory::PageImage
FunctionalMemory::snapshotPages() const
{
    PageImage image;
    image.reserve(pagesAllocated());
    auto take = [&image](const PageMap &layer, const PageMap *above) {
        // catch-analyze: allow(unordered-iter) entries are sorted below
        for (const auto &kv : layer)
            if (!above || !above->count(kv.first))
                image.emplace_back(kv.first, kv.second);
    };
    take(pages_, nullptr);
    if (base_)
        take(base_->pages, shadowed_ ? &pages_ : nullptr);
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
    privateBytes_ = 0;
    pages_.clear();
    pages_.reserve(image.size());
    for (const auto &kv : image) {
        pages_.emplace(kv.first, kv.second);
        privateBytes_ += kv.second->bytes();
    }
    // The old layers' pages are gone; every cached translation is stale.
    clearTlb();
}

FunctionalMemory::BasePtr
FunctionalMemory::publishBase()
{
    CATCHSIM_ASSERT(!base_, "publishBase() over an existing base layer");
    auto base = std::make_shared<const BaseLayer>(
        BaseLayer{std::move(pages_), privateBytes_});
    pages_ = PageMap();
    privateBytes_ = 0;
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
    privateBytes_ = 0;
    pages_.clear();
    clearTlb();
}

} // namespace catchsim

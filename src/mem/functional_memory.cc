#include "mem/functional_memory.hh"

#include <algorithm>
#include <cstring>

namespace catchsim
{

namespace
{

/** A private copy of @p page, in its own form. */
FunctionalMemory::PagePtr
clonePage(const FunctionalMemory::Page &page)
{
    if (page.sparse())
        return std::make_unique<FunctionalMemory::SparsePage>(
            static_cast<const FunctionalMemory::SparsePage &>(page));
    return std::make_unique<FunctionalMemory::DensePage>(
        static_cast<const FunctionalMemory::DensePage &>(page));
}

} // namespace

// --- page forms ---------------------------------------------------------

void
FunctionalMemory::PageDelete::operator()(Page *p) const
{
    if (p->sparse())
        std::default_delete<SparsePage>()(static_cast<SparsePage *>(p));
    else
        std::default_delete<DensePage>()(static_cast<DensePage *>(p));
}

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
FunctionalMemory::basePage(Addr page) const
{
    for (const PageImage::Layer *l = base_.top_.get(); l; l = l->below.get())
        if (auto it = l->pages.find(page); it != l->pages.end())
            return it->second.get();
    return nullptr;
}

FunctionalMemory::Page *
FunctionalMemory::lookup(Addr page) const
{
    auto it = pages_.find(page);
    Page *data = it != pages_.end() ? it->second.get() : basePage(page);
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

FunctionalMemory::PagePtr *
FunctionalMemory::ownPage(Addr page, size_t i, uint64_t value)
{
    auto it = pages_.find(page);
    if (it == pages_.end()) {
        Page *below = basePage(page);
        // 0 over a word a sparse base page does not hold stores
        // nothing, so it leaves the page in the base.
        if (below && !value && below->sparse() && !sparse(below)->holds(i)) {
            fill(page, below, false);
            return nullptr;
        }
        // The first write to a base page clones it into the private
        // layer; the image stays frozen for every memory sharing it. A
        // page new to both layers starts sparse and empty.
        it = pages_
                 .emplace(page, below ? clonePage(*below)
                                      : std::make_unique<SparsePage>())
                 .first;
        if (below) {
            ++shadowed_;
            shadowedBytes_ += below->bytes();
        }
        privateBytes_ += it->second->bytes();
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
        auto d = std::make_unique<DensePage>();
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

// --- images -------------------------------------------------------------

std::vector<std::pair<Addr, const FunctionalMemory::Page *>>
FunctionalMemory::PageImage::list() const
{
    std::vector<std::pair<Addr, const Page *>> out;
    forEachLayer([&out](const Layer &l) {
        for (const auto &[addr, page] : l.pages)
            out.emplace_back(addr, page.get());
    });
    // Stable, so of a page's copies the newest layer's sorts first.
    std::stable_sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.first < b.first;
    });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const auto &a, const auto &b) {
                              return a.first == b.first;
                          }),
              out.end());
    return out;
}

FunctionalMemory::PageImage
FunctionalMemory::snapshotPages()
{
    if (pages_.empty())
        return base_;
    auto layer = std::make_shared<PageImage::Layer>();
    layer->ownBytes = privateBytes_;
    layer->count = base_.size() + pages_.size() - shadowed_;
    layer->bytes = base_.bytes() + privateBytes_ - shadowedBytes_;
    layer->pages = std::move(pages_);
    layer->below = std::move(base_.top_);
    base_.top_ = std::move(layer);
    pages_ = PageMap();
    shadowed_ = privateBytes_ = shadowedBytes_ = 0;
    // The private pages moved into the image: none is writable here any
    // more. Read translations still point at the same pages.
    for (auto &e : tlb_)
        e.wpage = ~Addr(0);
    return base_;
}

void
FunctionalMemory::restorePages(const PageImage &image)
{
    base_ = image;
    pages_.clear();
    shadowed_ = privateBytes_ = shadowedBytes_ = 0;
    // The old layers' pages may be gone; every cached translation is stale.
    clearTlb();
}

} // namespace catchsim

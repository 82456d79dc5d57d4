/**
 * @file
 * Sparse functional memory backing the synthetic workloads.
 *
 * Workload kernels execute real algorithms (linked lists, hash probes,
 * stencils...) against this memory, so load values in the trace are the
 * true contents of the accessed locations. That is what makes
 * TACT-Feeder honest: when a feeder prefetch "returns", the prefetcher
 * reads the same value hardware would have seen on the fill and uses it
 * to compute the dependent (pointer-chased) address.
 *
 * Two page forms. Server and HPC kernels seed only a sample of their
 * multi-MB arrays and heaps, so most of their pages hold a handful of
 * nonzero words. Every page therefore starts sparse: up to
 * kSparseWords (word offset, value) entries holding exactly its
 * nonzero words, about 100 bytes instead of 4 KB. The first write
 * that would add one more nonzero word promotes the page to the dense
 * form, a plain 4 KB array of words; a dense page never goes back.
 * Writing 0 to a word a sparse page does not hold stores nothing.
 * Both forms read back the same words, so the form is invisible to
 * every caller but the byte accounting (Page::bytes()).
 *
 * Two layers. A memory may sit on an immutable shared base layer — a
 * kernel image's post-setup page map (trace/kernel_image.hh) that every
 * start of the kernel adopts as one shared_ptr — under a private layer
 * of the pages this memory wrote. A lookup tries the private layer
 * first, then the base; the first write to a base page clones it into
 * the private layer. A start and its teardown therefore cost O(pages
 * written), and neither touches a base page's reference count.
 *
 * Private pages are refcounted and copy-on-write so warmed-state
 * snapshots are cheap (sim/warm_state.hh): snapshotPages() hands out
 * shared handles to the live pages (base and private) instead of
 * copying them, restorePages() adopts a snapshot's handles instead of
 * rebuilding the map page by page, and the first write to a page that
 * is still shared with a snapshot (or with a sibling restored run)
 * clones just that page, in its own form. A page whose handle is held
 * by more than one owner, and every base page, is immutable by
 * contract whatever its form — the write path enforces it — so
 * concurrent runs restored from the same resident snapshot or image
 * can share physical pages safely.
 *
 * read() and write() are inline: their translation-cache hit on a
 * dense page is the kernels' per-access cost. Sparse pages are cached
 * too, under a tagged entry the inline check never matches, so they
 * and every miss take the out-of-line slow paths.
 */

#ifndef CATCHSIM_MEM_FUNCTIONAL_MEMORY_HH_
#define CATCHSIM_MEM_FUNCTIONAL_MEMORY_HH_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace catchsim
{

/** Page-granular sparse memory of 64-bit words. */
class FunctionalMemory
{
  public:
    static constexpr size_t kWordsPerPage = kPageBytes / sizeof(uint64_t);

    /** Most nonzero words a sparse page holds; the write that would
     *  add one more promotes the page to the dense form. */
    static constexpr size_t kSparseWords = 8;

    class Page;
    struct DensePage;
    struct SparsePage;

    /**
     * Shared page handle. A handle with use_count() > 1 points at an
     * immutable page (snapshots and sibling runs may read it
     * concurrently); the owning memory clones before its first write.
     */
    using PagePtr = std::shared_ptr<Page>;

    /** One 4 KB page of words, in the dense or the sparse form. */
    class Page
    {
      public:
        bool sparse() const { return sparse_; }

        /** Word @p i of the page, i < kWordsPerPage. */
        uint64_t word(size_t i) const;

        /** Heap bytes of the page body in its form (handles and map
         *  nodes excluded). */
        size_t bytes() const;

        /** Writes the page's kPageBytes word image to @p out, which
         *  need not be aligned. */
        void copyTo(void *out) const;

      protected:
        explicit Page(bool sparse) : sparse_(sparse) {}

      private:
        bool sparse_;
    };

    /** The 4 KB form: every word in place. */
    struct DensePage final : Page
    {
        DensePage() : Page(false) {}
        uint64_t words[kWordsPerPage] = {};
    };

    /** The compact form: the page's nonzero words, unordered. */
    struct SparsePage final : Page
    {
        SparsePage() : Page(true) {}

        uint8_t count = 0;
        uint16_t offsets[kSparseWords] = {};
        uint64_t values[kSparseWords] = {};

        /** The entry holding word @p i, or count when none does. */
        size_t
        slot(size_t i) const
        {
            size_t k = 0;
            while (k < count && offsets[k] != i)
                ++k;
            return k;
        }

        uint64_t
        get(size_t i) const
        {
            const size_t k = slot(i);
            return k < count ? values[k] : 0;
        }

        bool holds(size_t i) const { return slot(i) < count; }

        /** Stores word @p i, dropping its entry when @p v is 0. False,
         *  with nothing changed, when the page is full and @p i is a
         *  new nonzero word: the caller promotes. */
        bool set(size_t i, uint64_t v);
    };

    /** A memory image: (page address, handle) in ascending address
     *  order, sharing pages with whichever memory produced it. */
    using PageImage = std::vector<std::pair<Addr, PagePtr>>;

    /** Page address to handle. */
    using PageMap = std::unordered_map<Addr, PagePtr>;

    /** An immutable page map any number of memories adopt at once as
     *  their base layer; none of them ever writes its pages. */
    struct BaseLayer
    {
        PageMap pages;
        size_t bytes = 0; ///< Page::bytes() summed over pages
    };
    using BasePtr = std::shared_ptr<const BaseLayer>;

    FunctionalMemory() = default;

    // Memory images can be large; keep them uncopied.
    FunctionalMemory(const FunctionalMemory &) = delete;
    FunctionalMemory &operator=(const FunctionalMemory &) = delete;
    FunctionalMemory(FunctionalMemory &&) = default;
    FunctionalMemory &operator=(FunctionalMemory &&) = default;

    /** Reads the 64-bit word containing @p addr (8-byte aligned access). */
    uint64_t
    read(Addr addr) const
    {
        const Addr page = pageAddr(addr);
        const TlbEntry &e = tlb_[tlbIndex(page)];
        if (e.page == page)
            return dense(e.data)->words[wordIndex(addr)];
        return readSlow(addr);
    }

    /** Writes the 64-bit word containing @p addr. */
    void
    write(Addr addr, uint64_t value)
    {
        const Addr page = pageAddr(addr);
        const TlbEntry &e = tlb_[tlbIndex(page)];
        if (e.wpage == page)
            dense(e.data)->words[wordIndex(addr)] = value;
        else
            writeSlow(addr, value);
    }

    /** Number of distinct 4 KB pages touched so far: base ∪ private. */
    size_t
    pagesAllocated() const
    {
        return pages_.size() + (base_ ? base_->pages.size() : 0) -
               shadowed_;
    }

    /**
     * Captures the current contents (base ∪ private, in ascending
     * address order) as a shared image, O(pages) handle copies — no
     * page data moves. Every live private page becomes shared with the
     * image, so the next write to each one takes the clone path; reads
     * keep their cached translations.
     */
    PageImage snapshotPages() const;

    /**
     * Replaces the entire contents with @p image, adopting its handles
     * in place and dropping any base layer (the object's address — the
     * feeder's value source — is preserved; the translation cache
     * restarts cold). The image's pages stay shared: a later write here
     * clones, never mutates them.
     */
    void restorePages(const PageImage &image);

    /**
     * Moves every page into a new immutable base layer, adopts it and
     * returns it for other memories to adopt. Contents are unchanged.
     * @pre the memory has no base layer yet (it was built from empty or
     *      from restorePages()).
     */
    BasePtr publishBase();

    /**
     * Replaces the entire contents with @p base as the base layer and
     * an empty private layer, in O(1): one shared_ptr is stored, no page
     * handle is copied. The translation cache restarts cold.
     */
    void adoptBase(BasePtr base);

  private:
    // Direct-mapped page-translation cache: sequential generation hits
    // one entry repeatedly, and pointer-chasing kernels (whose working
    // set spans thousands of pages — mcf ~8.7k, hpc.stream ~17k) land
    // on a cached translation instead of a hash probe. `page` tags a
    // read-valid translation; `wpage` additionally tags it write-valid
    // (the page is private and exclusively owned). A sparse page's
    // tags carry kSparseTag, so the inline dense check never matches
    // them. Snapshotting clears only the write tags — reads stay
    // cached across a snapshot, and the first write per page funnels
    // through the slow path to clone.
    // 16384 entries x 24 B = 384 KB, host-L2/L3-resident and large
    // enough to hold every suite workload's full page set.
    static constexpr size_t kTlbEntries = 16384;
    static constexpr Addr kSparseTag = 1; ///< below page granularity
    struct TlbEntry
    {
        Addr page = ~Addr(0);  ///< read-valid tag
        Addr wpage = ~Addr(0); ///< write-valid tag (subset of page)
        Page *data = nullptr;
    };

    static DensePage *dense(Page *p) { return static_cast<DensePage *>(p); }
    static SparsePage *sparse(Page *p) { return static_cast<SparsePage *>(p); }

    /** Slow read path: a cached sparse page, or a resolved and cached
     *  translation; untouched memory reads 0. */
    uint64_t readSlow(Addr addr) const;

    /** Slow write path: clones a shared or base page, creates a new
     *  sparse page, or promotes a full one, then stores the word. */
    void writeSlow(Addr addr, uint64_t value);

    /** Resolves @p page (private layer first, then the base) and caches
     *  a read-only translation; null when untouched. */
    Page *lookup(Addr page) const;

    /** The private, exclusively owned handle for @p page — cloned from
     *  a shared or base page or created empty — cached write-valid; or
     *  null, with nothing cloned, when writing @p value to word @p i of
     *  a shared or base sparse page would store nothing. */
    PagePtr *ownPage(Addr page, size_t i, uint64_t value);

    /** Caches @p p as @p page's translation, write-valid or not. */
    void fill(Addr page, Page *p, bool writable) const;

    /** Invalidates every cached translation (a no-op when none is). */
    void clearTlb();

    static size_t
    wordIndex(Addr addr)
    {
        return static_cast<size_t>((addr & (kPageBytes - 1)) >> 3);
    }

    static size_t
    tlbIndex(Addr page)
    {
        return static_cast<size_t>(page / kPageBytes) &
               (kTlbEntries - 1);
    }

    // Handles live by value in the maps; the pages themselves are heap
    // allocations that never move, so the translation cache below (and
    // any pointer held across other accesses) stays valid until the
    // page is cloned or promoted or a layer is replaced — each of which
    // updates or invalidates the affected cache entries explicitly.
    PageMap pages_;          ///< private layer: the pages this memory wrote
    BasePtr base_;           ///< shared base layer, never written; may be null
    size_t shadowed_ = 0;    ///< private pages that shadow a base page
    size_t privateBytes_ = 0; ///< Page::bytes() summed over pages_

    mutable TlbEntry tlb_[kTlbEntries];
    /** No entry has been filled since construction or the last clear,
     *  so clearing is free: a fresh memory's adoption skips the pass. */
    mutable bool tlbCold_ = true;
};

inline uint64_t
FunctionalMemory::Page::word(size_t i) const
{
    return sparse_ ? static_cast<const SparsePage *>(this)->get(i)
                   : static_cast<const DensePage *>(this)->words[i];
}

inline size_t
FunctionalMemory::Page::bytes() const
{
    return sparse_ ? sizeof(SparsePage) : sizeof(DensePage);
}

} // namespace catchsim

#endif // CATCHSIM_MEM_FUNCTIONAL_MEMORY_HH_

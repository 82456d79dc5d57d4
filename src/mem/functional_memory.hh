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
 * Two layers. A memory reads through a private layer of the pages it
 * wrote since its base was set, then its base: an immutable PageImage,
 * a stack of page maps that any number of memories share at once.
 * The first write to a base page clones it, in its own form, into the
 * private layer; no memory ever writes an image's pages, so concurrent
 * runs on one image share its pages without locks or reference counts.
 *
 * That is the one way pages are shared. snapshotPages() moves the
 * private layer into a new image laid over the current base and makes
 * that image the base, so a snapshot costs O(1) page work and the
 * snapshotting memory clones each page again on its next write to it;
 * restorePages() stores one shared pointer. A kernel image is the
 * image its building start snapshots right after setup() (see
 * trace/kernel_image.hh), and a warmed-state snapshot is one more
 * layer over it (sim/warm_state.hh), so a restored run reads through
 * at most two layers. Each layer also keeps its image's page count
 * and byte total, so size() and bytes() never walk the pages.
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

    /** Frees a page in its own form (Page has no virtual destructor,
     *  which would add a pointer to every page). */
    struct PageDelete
    {
        PageDelete() = default;
        /** Lets a std::make_unique of either form convert to PagePtr. */
        template <typename T> PageDelete(std::default_delete<T>) {}
        void operator()(Page *p) const;
    };

    /** A page's one owner: a memory's private layer or an image layer. */
    using PagePtr = std::unique_ptr<Page, PageDelete>;

    /** One 4 KB page of words, in the dense or the sparse form. */
    class Page
    {
      public:
        bool sparse() const { return sparse_; }

        /** Word @p i of the page, i < kWordsPerPage. */
        uint64_t word(size_t i) const;

        /** Heap bytes of the page body in its form (pointers and map
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

    /** Page address to page. */
    using PageMap = std::unordered_map<Addr, PagePtr>;

    /**
     * An immutable memory image any number of memories share as their
     * base: a stack of page-map layers, each shadowing the pages of the
     * layers below it. Copying an image copies one shared pointer; the
     * default image is empty.
     */
    class PageImage
    {
      public:
        /** One layer; the image's top layer is its newest. */
        struct Layer
        {
            PageMap pages;                      ///< shadow those below
            std::shared_ptr<const Layer> below; ///< may be null
            size_t ownBytes = 0; ///< Page::bytes() summed over pages
            size_t count = 0;    ///< distinct pages, this layer and below
            size_t bytes = 0;    ///< Page::bytes() summed over those
        };

        /** Distinct pages in the image. */
        size_t size() const { return top_ ? top_->count : 0; }

        /** Page::bytes() summed over the image's distinct pages. */
        size_t bytes() const { return top_ ? top_->bytes : 0; }

        /** Calls @p fn on every layer, newest first. */
        template <typename Fn>
        void
        forEachLayer(Fn &&fn) const
        {
            for (const Layer *l = top_.get(); l; l = l->below.get())
                fn(*l);
        }

        /** Every distinct page, its newest copy, in ascending address
         *  order: for inspection, O(pages). */
        std::vector<std::pair<Addr, const Page *>> list() const;

      private:
        friend class FunctionalMemory;
        std::shared_ptr<const Layer> top_;
    };

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
        return pages_.size() + base_.size() - shadowed_;
    }

    /**
     * The current contents as an image, which also becomes this
     * memory's base: the private pages move, uncopied, into a new layer
     * over the old base (or into the image's only layer when there is
     * none), so the next write here to each of them clones it. With no
     * write since the base was set, the base itself. Reads keep their
     * cached translations.
     */
    PageImage snapshotPages();

    /**
     * Replaces the entire contents with @p image as the base and an
     * empty private layer, in O(1): one shared pointer is stored. The
     * object's address — the feeder's value source — is preserved; the
     * translation cache restarts cold.
     */
    void restorePages(const PageImage &image);

  private:
    // Direct-mapped page-translation cache: sequential generation hits
    // one entry repeatedly, and pointer-chasing kernels (whose working
    // set spans thousands of pages — mcf ~8.7k, hpc.stream ~17k) land
    // on a cached translation instead of a hash probe. `page` tags a
    // read-valid translation; `wpage` additionally tags it write-valid
    // (the page is in the private layer). A sparse page's tags carry
    // kSparseTag, so the inline dense check never matches them.
    // Snapshotting clears only the write tags — reads stay cached
    // across a snapshot, and the first write per page funnels through
    // the slow path to clone.
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

    /** Slow write path: clones a base page, creates a new sparse
     *  page, or promotes a full one, then stores the word. */
    void writeSlow(Addr addr, uint64_t value);

    /** Resolves @p page (private layer first, then the base) and caches
     *  a read-only translation; null when untouched. */
    Page *lookup(Addr page) const;

    /** @p page in the newest base layer that holds it, or null. */
    Page *basePage(Addr page) const;

    /** The private handle for @p page — cloned from a base page or
     *  created empty — cached write-valid; or null, with nothing
     *  cloned, when writing @p value to word @p i of a sparse base page
     *  would store nothing. */
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

    // Pages are heap allocations that never move, not even when a
    // snapshot moves the private map into an image, so the translation
    // cache below (and any pointer held across other accesses) stays
    // valid until the page is promoted or the base is replaced — each
    // of which updates or invalidates the affected cache entries.
    PageMap pages_;   ///< private layer: written since the base was set
    PageImage base_;  ///< never written; may be empty
    size_t shadowed_ = 0;      ///< private pages that shadow a base page
    size_t privateBytes_ = 0;  ///< Page::bytes() summed over pages_
    size_t shadowedBytes_ = 0; ///< ... and over the base pages shadowed

    mutable TlbEntry tlb_[kTlbEntries];
    /** No entry has been filled since construction or the last clear,
     *  so clearing is free: a fresh memory's restore skips the pass. */
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

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
 * Pages are refcounted and copy-on-write so warmed-state snapshots are
 * cheap (sim/warm_state.hh): snapshotPages() hands out shared handles
 * to the live pages instead of copying 4 KB each, restorePages() adopts
 * a snapshot's handles instead of rebuilding the map page by page, and
 * the first write to a page that is still shared with a snapshot (or
 * with a sibling restored run) clones just that page. A page whose
 * handle is held by more than one owner is immutable by contract — the
 * write path enforces it — so concurrent runs restored from the same
 * resident snapshot can share physical pages safely.
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

    /** One 4 KB page; trivially copyable (raw disk records memcpy it). */
    struct Page
    {
        uint64_t words[kWordsPerPage] = {};
    };

    /**
     * Shared page handle. A handle with use_count() > 1 points at an
     * immutable page (snapshots and sibling runs may read it
     * concurrently); the owning memory clones before its first write.
     */
    using PagePtr = std::shared_ptr<Page>;

    /** A memory image: (page address, handle) in ascending address
     *  order, sharing pages with whichever memory produced it. */
    using PageImage = std::vector<std::pair<Addr, PagePtr>>;

    FunctionalMemory() = default;

    // Memory images can be large; keep them uncopied.
    FunctionalMemory(const FunctionalMemory &) = delete;
    FunctionalMemory &operator=(const FunctionalMemory &) = delete;
    FunctionalMemory(FunctionalMemory &&) = default;
    FunctionalMemory &operator=(FunctionalMemory &&) = default;

    /** Reads the 64-bit word containing @p addr (8-byte aligned access). */
    uint64_t read(Addr addr) const;

    /** Writes the 64-bit word containing @p addr. */
    void write(Addr addr, uint64_t value);

    /** Number of distinct 4 KB pages touched so far. */
    size_t pagesAllocated() const { return pages_.size(); }

    /**
     * Captures the current contents as a shared image, O(pages) handle
     * copies — no page data moves. Every live page becomes shared with
     * the image, so the next write to each one takes the clone path;
     * reads keep their cached translations.
     */
    PageImage snapshotPages() const;

    /**
     * Replaces the entire contents with @p image, adopting its handles
     * in place (the object's address — the feeder's value source — is
     * preserved; the translation cache restarts cold). The image's
     * pages stay shared: a later write here clones, never mutates them.
     */
    void restorePages(const PageImage &image);

  private:
    Page *writablePage(Addr page);
    const Page *pageForConst(Addr addr) const;

    // Handles live by value in the map; the pages themselves are heap
    // allocations that never move, so the translation cache below (and
    // any pointer held across other accesses) stays valid until the
    // page is cloned or the map is replaced — both of which invalidate
    // the affected cache entries explicitly.
    std::unordered_map<Addr, PagePtr> pages_;

    // Direct-mapped page-translation cache: sequential generation hits
    // one entry repeatedly, and pointer-chasing kernels (whose working
    // set spans thousands of pages — mcf ~8.7k, hpc.stream ~17k) land
    // on a cached translation instead of a hash probe. `page` tags a
    // read-valid translation; `wpage` additionally tags it write-valid
    // (the page is exclusively owned). Snapshotting clears only the
    // write tags — reads stay cached across a snapshot, and the first
    // write per page funnels through writablePage() to clone. 16384
    // entries x 24 B = 384 KB, host-L2/L3-resident and large enough to
    // hold every suite workload's full page set.
    static constexpr size_t kTlbEntries = 16384;
    struct TlbEntry
    {
        Addr page = ~Addr(0);  ///< read-valid tag
        Addr wpage = ~Addr(0); ///< write-valid tag (subset of page)
        Page *data = nullptr;
    };
    mutable TlbEntry tlb_[kTlbEntries];

    static size_t
    tlbIndex(Addr page)
    {
        return static_cast<size_t>(page / kPageBytes) &
               (kTlbEntries - 1);
    }
};

} // namespace catchsim

#endif // CATCHSIM_MEM_FUNCTIONAL_MEMORY_HH_

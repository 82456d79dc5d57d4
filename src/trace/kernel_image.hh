/**
 * @file
 * KernelImageStore: each suite kernel's post-setup state, built once per
 * process and adopted by every later start.
 *
 * A registry kernel's state after Workload::setup() is a pure function
 * of its registry entry: the functional-memory pages, the kernel Rng
 * and cursors that restart() resets to constants. The evaluation starts
 * the same kernels again and again (the Fig 10 campaign six times per
 * kernel, a RATE-4 mix four times in one machine), so Workload::start()
 * builds the first two once, publishes them here as an immutable
 * KernelImage, and every later start adopts the image's prebuilt page
 * map as its memory's shared base layer (FunctionalMemory::adoptBase)
 * instead of rerunning setup(). Adoption stores one shared_ptr: no page
 * handle is copied and no page's reference count is touched, so a start
 * and its teardown cost O(pages the run writes). The adopting memory
 * clones a base page into its private layer on its first write to it,
 * so an image's pages are never written and concurrent adopters share
 * them. That holds for both page forms (mem/functional_memory.hh): a
 * sparse base page is cloned sparse, and promoted only in the clone.
 *
 * Key: the suite registry name (trace/suite.cc). Kernels constructed
 * directly have no registry identity and never reach the store.
 *
 * Retention: a MemoLru facade (common/content_store.hh), an LRU under
 * the fixed kBudgetBytes, charging each page at its size in its form: a
 * seeded sample of a multi-MB array costs ~100 bytes a page, not 4 KB.
 * It holds the 14-kernel quick suite (~111 MB) or the ten kernels of
 * e2ebench's mp-mix workload (~120 MB), not all 70 images (~575 MB).
 * An evicted image is rebuilt on its next start; adopters still
 * holding its base layer keep it alive until they finish.
 */

#ifndef CATCHSIM_TRACE_KERNEL_IMAGE_HH_
#define CATCHSIM_TRACE_KERNEL_IMAGE_HH_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/content_store.hh"
#include "common/rng.hh"
#include "mem/functional_memory.hh"

namespace catchsim
{

/** A kernel's state right after setup(): its pages and its generator. */
struct KernelImage
{
    FunctionalMemory::BasePtr pages; ///< never null; never written
    Rng rng;
};

class KernelImageStore : private MemoLru
{
  public:
    using ImagePtr = std::shared_ptr<const KernelImage>;
    using Stats = MemoLru::Stats;

    /** Resident image bytes never exceed this: 256 MB. */
    static constexpr size_t kBudgetBytes = size_t(256) << 20;

    KernelImageStore();

    /** The resident image for @p key, or null. Thread-safe. */
    ImagePtr find(const std::string &key);

    /**
     * The image for @p key: the resident one, or the one @p build
     * returns, published for every later start. Concurrent callers for
     * one key wait for a single build; different keys build in
     * parallel. An image larger than the whole budget is returned but
     * not retained.
     */
    ImagePtr findOrBuild(const std::string &key,
                         const std::function<KernelImage()> &build);

    using MemoLru::residentBytes;
    using MemoLru::stats;

    /** The bytes @p img charges against the budget: each page at its
     *  size in its form (FunctionalMemory::Page::bytes()) plus its map
     *  node's handle. */
    static size_t imageBytes(const KernelImage &img);

    /** The process-wide store every registry kernel starts through. */
    static KernelImageStore &global();

  private:
    size_t charge(const void *value, const PartFn &shared) const override;

    /** Per-key build gates; keys are registry names, so at most 70. */
    std::mutex gatesMu_;
    std::map<std::string, std::shared_ptr<std::mutex>> gates_;
};

} // namespace catchsim

#endif // CATCHSIM_TRACE_KERNEL_IMAGE_HH_

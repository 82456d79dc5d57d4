/**
 * @file
 * Kernel images: a registry kernel's start adopts the process-wide
 * post-setup image (trace/kernel_image.hh) instead of rerunning
 * setup(). An adopted start must be indistinguishable from a fresh
 * setup() — every op, every memory word and the generator — on every
 * path that starts a kernel (generate, in-place and chunk-store
 * streams, their rewinds), and concurrent adopters must never write
 * the image's shared pages.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/env.hh"
#include "sim/configs.hh"
#include "sim/parallel_runner.hh"
#include "sim_result_compare.hh"
#include "trace/chunk_store.hh"
#include "trace/kernel_image.hh"
#include "trace/suite.hh"
#include "trace/trace_stream.hh"

namespace catchsim
{
namespace
{

::testing::AssertionResult
sameOps(const std::vector<MicroOp> &a, const std::vector<MicroOp> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << a.size() << " ops vs " << b.size();
    for (size_t i = 0; i < a.size(); ++i) {
        const MicroOp &x = a[i], &y = b[i];
        if (x.pc != y.pc || x.cls != y.cls || x.memAddr != y.memAddr ||
            x.value != y.value || x.taken != y.taken || x.dst != y.dst ||
            std::memcmp(x.src, y.src, sizeof x.src) != 0)
            return ::testing::AssertionFailure() << "op " << i << " differs";
    }
    return ::testing::AssertionSuccess();
}

/** Same pages at the same addresses holding the same words.
 *  Snapshotting leaves both memories' contents as they are. */
::testing::AssertionResult
sameMemory(FunctionalMemory &a, FunctionalMemory &b)
{
    const auto pa = a.snapshotPages().list(), pb = b.snapshotPages().list();
    if (pa.size() != pb.size())
        return ::testing::AssertionFailure()
               << pa.size() << " pages vs " << pb.size();
    uint64_t wa[FunctionalMemory::kWordsPerPage];
    uint64_t wb[FunctionalMemory::kWordsPerPage];
    for (size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].first != pb[i].first)
            return ::testing::AssertionFailure()
                   << "page " << i << " address differs";
        pa[i].second->copyTo(wa);
        pb[i].second->copyTo(wb);
        if (std::memcmp(wa, wb, kPageBytes) != 0)
            return ::testing::AssertionFailure()
                   << "page 0x" << std::hex << pa[i].first << " differs";
    }
    return ::testing::AssertionSuccess();
}

std::vector<MicroOp>
drain(TraceStream &stream)
{
    std::vector<MicroOp> out;
    out.reserve(stream.size());
    TraceView view = stream.view();
    for (size_t p = 0; p < stream.size(); ++p) {
        stream.ensure(p);
        out.push_back(view.at(p));
    }
    return out;
}

/** FNV-1a over an image's addresses and words. */
uint64_t
imageHash(const FunctionalMemory::PageImage &image)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    for (const auto &[addr, page] : image.list()) {
        mix(addr);
        for (size_t i = 0; i < FunctionalMemory::kWordsPerPage; ++i)
            mix(page->word(i));
    }
    return h;
}

/**
 * Every suite kernel, every start path: the oracle is a fresh,
 * keyless instance's first generate(), whose cursors start at their
 * constructor values. An adopted instance is then started seven times
 * (generate twice, an in-place and a chunk-store stream, each
 * rewound), so a cursor that restart() fails to reset shows up as a
 * differing op on a repeat start.
 */
TEST(KernelImage, AdoptedStartsEqualFreshSetupForEverySuiteKernel)
{
    constexpr size_t kOps = 10000;
    constexpr size_t kChunk = 4096;
    KernelImageStore &images = KernelImageStore::global();
    const uint64_t hits_before = images.stats().hits;
    for (const std::string &name : stSuiteNames()) {
        SCOPED_TRACE(name);
        auto fresh = makeWorkload(name);
        fresh->setImageKey({});
        auto wl = makeWorkload(name);
        ASSERT_EQ(wl->imageKey(), name);

        // The start itself: memory words and generator state.
        auto adopted_mem = std::make_unique<FunctionalMemory>();
        const Rng adopted_rng = wl->start(*adopted_mem);
        {
            auto fresh_mem = std::make_unique<FunctionalMemory>();
            const Rng fresh_rng = fresh->start(*fresh_mem);
            EXPECT_TRUE(fresh_rng == adopted_rng);
            EXPECT_TRUE(sameMemory(*fresh_mem, *adopted_mem));
            // A second start adopts whether or not the first built.
            auto again = std::make_unique<FunctionalMemory>();
            EXPECT_TRUE(wl->start(*again) == fresh_rng);
            EXPECT_TRUE(sameMemory(*fresh_mem, *again));
        }
        const Trace oracle = fresh->generate(kOps);

        for (int pass = 0; pass < 2; ++pass) {
            const Trace t = wl->generate(kOps);
            EXPECT_TRUE(sameOps(t.ops, oracle.ops)) << "generate " << pass;
            EXPECT_TRUE(sameMemory(*t.mem, *oracle.mem))
                << "generate " << pass;
        }

        TraceStream in_place(*wl, kOps, kChunk);
        for (int pass = 0; pass < 2; ++pass) {
            if (pass)
                in_place.rewind();
            EXPECT_TRUE(sameOps(drain(in_place), oracle.ops))
                << "in-place stream " << pass;
            EXPECT_TRUE(sameMemory(*in_place.mem(), *oracle.mem))
                << "in-place stream " << pass;
        }

        // A store-backed stream's memory is the post-setup image plus
        // the served ops' stores (kernel writes past the op budget are
        // not served).
        for (const MicroOp &op : oracle.ops)
            if (op.isStore())
                adopted_mem->write(op.memAddr, op.value);
        ChunkStore store;
        TraceStream stored(*wl, kOps, kChunk, {}, &store);
        for (int pass = 0; pass < 2; ++pass) {
            if (pass)
                stored.rewind();
            EXPECT_TRUE(sameOps(drain(stored), oracle.ops))
                << "chunk-store stream " << pass;
            EXPECT_TRUE(sameMemory(*stored.mem(), *adopted_mem))
                << "chunk-store stream " << pass;
        }
        EXPECT_LE(images.residentBytes(), KernelImageStore::kBudgetBytes);
    }
    // Most starts above adopted a resident image.
    EXPECT_GT(images.stats().hits - hits_before, 5 * stSuiteNames().size());
}

/**
 * Sparse pages keep the suite's images small: every one of the 70
 * images, built fresh, charges its pages at their size in their form.
 * Dense 4 KB pages throughout made 1,318 MB of images; most server and
 * HPC pages hold a handful of seeded words.
 */
TEST(KernelImage, SparsePagesKeepTheFullSuiteUnder600MB)
{
    size_t total = 0;
    for (const std::string &name : stSuiteNames()) {
        SCOPED_TRACE(name);
        auto wl = makeWorkload(name);
        wl->setImageKey({});
        FunctionalMemory mem;
        const Rng rng = wl->start(mem);
        const KernelImage img{mem.snapshotPages(), rng};
        const size_t bytes = KernelImageStore::imageBytes(img);
        const size_t dense =
            img.pages.size() *
            (kPageBytes + sizeof(FunctionalMemory::PageMap::value_type));
        EXPECT_LE(bytes, dense + img.pages.size() * 8);
        if (name == "hpc.stream" || name == "tpcc" || name == "libquantum") {
            EXPECT_LT(bytes, dense / 20) << "under 5% of the dense size";
        }
        total += bytes;
    }
    EXPECT_LE(total, size_t(600) << 20);
}

/** Concurrent first starts of one key wait for a single build. */
TEST(KernelImageConcurrent, OneBuildPerKeyUnderContention)
{
    const unsigned threads =
        static_cast<unsigned>(envU64("CATCH_JOBS", 16));
    KernelImageStore store;
    std::atomic<int> builds{0};
    std::vector<KernelImageStore::ImagePtr> got(threads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            got[t] = store.findOrBuild("k", [&] {
                ++builds;
                auto mem = std::make_unique<FunctionalMemory>();
                mem->write(kHeapBase, 42);
                return KernelImage{mem->snapshotPages(), Rng(7)};
            });
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(builds.load(), 1);
    for (const auto &img : got)
        EXPECT_EQ(img, got[0]);
}

/**
 * CATCH_JOBS threads (default 16) adopt mcf's image and, released
 * together, write the same word of the same base page. Each adopter
 * clones the page into its private layer and reads its own value back;
 * the base page, and the image hash, never change.
 */
TEST(KernelImageConcurrent, AdoptersWritingOneBasePageEachClone)
{
    const unsigned threads =
        static_cast<unsigned>(envU64("CATCH_JOBS", 16));
    {
        FunctionalMemory mem;
        makeWorkload("mcf")->start(mem); // builds the image if need be
    }
    const KernelImageStore::ImagePtr img =
        KernelImageStore::global().find("mcf");
    ASSERT_TRUE(img);
    const uint64_t before = imageHash(img->pages);
    FunctionalMemory probe;
    probe.restorePages(img->pages);
    const auto pages = img->pages.list();
    ASSERT_FALSE(pages.empty());
    const auto &[page_addr, base_page] = pages[pages.size() / 2];
    const Addr addr = page_addr + 8;
    const uint64_t old_word = probe.read(addr);

    std::atomic<unsigned> ready{0};
    std::vector<int> cloned(threads, 0), kept(threads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            FunctionalMemory mem;
            mem.restorePages(img->pages);
            const uint64_t seen = mem.read(addr); // a cached base read
            ++ready;
            while (ready.load() < threads)
                std::this_thread::yield();
            mem.write(addr, 1000 + t);
            const auto mine = mem.snapshotPages().list();
            for (const auto &[a, page] : mine)
                if (a == pageAddr(addr))
                    cloned[t] = page != base_page;
            kept[t] = seen == old_word && mem.read(addr) == 1000 + t &&
                      mine.size() == pages.size();
        });
    }
    for (auto &th : pool)
        th.join();
    for (unsigned t = 0; t < threads; ++t) {
        EXPECT_TRUE(cloned[t]) << "adopter " << t << " wrote the base page";
        EXPECT_TRUE(kept[t]) << "adopter " << t;
    }
    EXPECT_EQ(probe.read(addr), old_word);
    EXPECT_EQ(imageHash(img->pages), before);
}

/**
 * CATCH_JOBS threads (default 16) adopt hpc.stream's image, whose
 * seeded array pages are sparse, and read a run of them. Released
 * together, each writes 0 over a word the pages do not hold (which
 * stores nothing and clones nothing), then a nonzero word (which clones
 * each page, still sparse), then enough words to promote its clones to
 * the dense form. Every adopter reads its own words back; the base
 * pages, and the image hash, never change.
 */
TEST(KernelImageConcurrent, AdoptersCloneAndPromoteSparseBasePages)
{
    const unsigned threads =
        static_cast<unsigned>(envU64("CATCH_JOBS", 16));
    {
        FunctionalMemory mem;
        makeWorkload("hpc.stream")->start(mem);
    }
    const KernelImageStore::ImagePtr img =
        KernelImageStore::global().find("hpc.stream");
    ASSERT_TRUE(img);
    const uint64_t before = imageHash(img->pages);
    FunctionalMemory probe;
    probe.restorePages(img->pages);
    std::vector<std::pair<Addr, const FunctionalMemory::Page *>> sparse;
    for (const auto &[addr, page] : img->pages.list())
        if (page->sparse() && sparse.size() < 64)
            sparse.emplace_back(addr, page);
    ASSERT_EQ(sparse.size(), 64u);
    // A word each page holds (its first) and one it does not.
    auto held = [](const FunctionalMemory::Page *p) {
        return static_cast<const FunctionalMemory::SparsePage *>(p)
            ->offsets[0];
    };
    constexpr size_t kFill = FunctionalMemory::kSparseWords + 1;

    std::atomic<unsigned> ready{0};
    std::vector<int> ok(threads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            FunctionalMemory mem;
            mem.restorePages(img->pages);
            bool good = true;
            for (const auto &[addr, page] : sparse)
                good &= mem.read(addr + held(page) * 8) ==
                        page->word(held(page));
            ++ready;
            while (ready.load() < threads)
                std::this_thread::yield();
            for (const auto &[addr, page] : sparse) {
                const Addr free_word = addr + ((held(page) + 1) % 512) * 8;
                mem.write(free_word, 0);
                good &= mem.pagesAllocated() == probe.pagesAllocated();
                mem.write(free_word, 1000 + t);
            }
            for (const auto &[addr, mine] : mem.snapshotPages().list())
                for (const auto &[base_addr, base_page] : sparse)
                    if (addr == base_addr)
                        good &= mine != base_page && mine->sparse();
            for (const auto &[addr, page] : sparse)
                for (size_t k = 0; k < kFill; ++k)
                    mem.write(addr + (256 + k) * 8, t * 100 + k + 1);
            for (const auto &[addr, page] : sparse) {
                good &= mem.read(addr + held(page) * 8) ==
                        page->word(held(page));
                good &= mem.read(addr + ((held(page) + 1) % 512) * 8) ==
                        1000 + t;
                for (size_t k = 0; k < kFill; ++k)
                    good &= mem.read(addr + (256 + k) * 8) == t * 100 + k + 1;
            }
            ok[t] = good;
        });
    }
    for (auto &th : pool)
        th.join();
    for (unsigned t = 0; t < threads; ++t)
        EXPECT_TRUE(ok[t]) << "adopter " << t;
    for (const auto &[addr, page] : sparse) {
        EXPECT_TRUE(page->sparse());
        EXPECT_EQ(probe.read(addr + ((held(page) + 1) % 512) * 8), 0u);
    }
    EXPECT_EQ(imageHash(img->pages), before);
}

/**
 * CATCH_JOBS threads (default 16) each run tpcc from its one resident
 * image. Every result equals the serial run bit for bit, and the
 * image's pages are unchanged: adopters clone a page before their
 * first write to it.
 */
TEST(KernelImageConcurrent, SixteenRunsAdoptOneImage)
{
    const unsigned jobs = static_cast<unsigned>(envU64("CATCH_JOBS", 16));
    const SimConfig cfg = withCatch(baselineSkx());
    constexpr uint64_t kInstr = 20000, kWarm = 5000;
    const auto serial =
        runWorkloadsIsolated(cfg, {"tpcc"}, kInstr, kWarm, /*jobs=*/1);
    ASSERT_TRUE(serial[0].ok());

    const KernelImageStore::ImagePtr img =
        KernelImageStore::global().find("tpcc");
    ASSERT_TRUE(img);
    const uint64_t before = imageHash(img->pages);

    const std::vector<std::string> names(jobs, "tpcc");
    const auto wide = runWorkloadsIsolated(cfg, names, kInstr, kWarm, jobs);
    ASSERT_EQ(wide.size(), names.size());
    for (const RunOutcome &out : wide) {
        ASSERT_TRUE(out.ok());
        expectBitwiseEqual(serial[0].result, out.result);
    }
    EXPECT_EQ(imageHash(img->pages), before);
    EXPECT_EQ(KernelImageStore::global().find("tpcc"), img)
        << "every run adopted the one resident image";
}

} // namespace
} // namespace catchsim

/**
 * @file
 * Unit tests for the sparse functional memory, including its one
 * page-sharing rule, behind kernel images and warmed-state snapshots
 * alike: a snapshot moves the written pages into an immutable image
 * that becomes the memory's base, a restore shares an image whole, and
 * the first write to an image page clones instead of mutating. Pages
 * come in a sparse and a dense form; a randomized differential test
 * checks every read against a plain word map across both.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "mem/functional_memory.hh"

namespace catchsim
{
namespace
{

TEST(FunctionalMemory, UntouchedReadsZero)
{
    FunctionalMemory mem;
    EXPECT_EQ(mem.read(0x1000), 0u);
    EXPECT_EQ(mem.pagesAllocated(), 0u); // const read must not allocate
}

TEST(FunctionalMemory, ReadAfterWrite)
{
    FunctionalMemory mem;
    mem.write(0x1000, 0xdeadbeef);
    EXPECT_EQ(mem.read(0x1000), 0xdeadbeefu);
}

TEST(FunctionalMemory, UnalignedAccessHitsContainingWord)
{
    FunctionalMemory mem;
    mem.write(0x1000, 42);
    EXPECT_EQ(mem.read(0x1003), 42u); // same 8-byte word
    EXPECT_EQ(mem.read(0x1008), 0u);  // next word
}

TEST(FunctionalMemory, SparsePages)
{
    FunctionalMemory mem;
    mem.write(0x0, 1);
    mem.write(0x100000000ULL, 2);
    EXPECT_EQ(mem.pagesAllocated(), 2u);
    EXPECT_EQ(mem.read(0x0), 1u);
    EXPECT_EQ(mem.read(0x100000000ULL), 2u);
}

TEST(FunctionalMemory, ManyWordsInOnePage)
{
    FunctionalMemory mem;
    for (Addr a = 0; a < 4096; a += 8)
        mem.write(a, a + 7);
    EXPECT_EQ(mem.pagesAllocated(), 1u);
    for (Addr a = 0; a < 4096; a += 8)
        EXPECT_EQ(mem.read(a), a + 7);
}

TEST(FunctionalMemory, OverwriteSticks)
{
    FunctionalMemory mem;
    mem.write(0x40, 1);
    mem.write(0x40, 2);
    EXPECT_EQ(mem.read(0x40), 2u);
}

// --------------------- Page images ---------------------

using Page = FunctionalMemory::Page;
using PageImage = FunctionalMemory::PageImage;
using SparsePage = FunctionalMemory::SparsePage;

/** @p image's page at @p page, or null. */
const Page *
pageAt(const PageImage &image, Addr page)
{
    for (const auto &[addr, p] : image.list())
        if (addr == page)
            return p;
    return nullptr;
}

/** Number of layers in @p image. */
size_t
layers(const PageImage &image)
{
    size_t n = 0;
    image.forEachLayer([&n](const auto &) { ++n; });
    return n;
}

TEST(FunctionalMemoryImage, SnapshotMovesPagesWithoutCopying)
{
    FunctionalMemory mem;
    mem.write(0x1000, 11);
    mem.write(0x100000, 22);
    const PageImage image = mem.snapshotPages();
    ASSERT_EQ(image.size(), 2u);
    EXPECT_EQ(image.bytes(), 2 * sizeof(SparsePage));
    EXPECT_EQ(layers(image), 1u) << "no base: the pages become the image";
    const auto pages = image.list();
    EXPECT_LT(pages[0].first, pages[1].first) << "ascending addresses";
    EXPECT_EQ(mem.pagesAllocated(), 2u);
    EXPECT_EQ(mem.read(0x1000), 11u) << "the memory reads its image";
    // With no write since, the next snapshot is the same image: the
    // same pages, not copies of them.
    EXPECT_EQ(mem.snapshotPages().list(), pages);
}

TEST(FunctionalMemoryImage, WriteAfterSnapshotClonesNotMutates)
{
    FunctionalMemory mem;
    mem.write(0x1000, 11);
    mem.write(0x2008, 22);
    const PageImage image = mem.snapshotPages();
    const Page *frozen = pageAt(image, 0x1000);

    mem.write(0x1000, 99); // first write to an image page: clones
    mem.write(0x2008, 88);
    EXPECT_EQ(mem.read(0x1000), 99u);
    EXPECT_EQ(mem.read(0x2008), 88u);

    FunctionalMemory replay;
    replay.restorePages(image);
    EXPECT_EQ(replay.read(0x1000), 11u)
        << "the snapshot must stay bitwise-frozen";
    EXPECT_EQ(replay.read(0x2008), 22u);
    EXPECT_EQ(pageAt(image, 0x1000), frozen);
    EXPECT_EQ(frozen->word(0), 11u);
    EXPECT_NE(pageAt(mem.snapshotPages(), 0x1000), frozen)
        << "the write went to a clone";
}

TEST(FunctionalMemoryImage, RestoredSiblingsNeverSeeEachOthersWrites)
{
    FunctionalMemory warmed;
    for (Addr a = 0; a < 4 * kPageBytes; a += 8)
        warmed.write(a, a + 1);
    const PageImage image = warmed.snapshotPages();
    const auto pages = image.list();

    // Two runs restored from one snapshot write disjoint words of every
    // page; each reads its own words and the snapshot's elsewhere.
    FunctionalMemory a, b;
    a.restorePages(image);
    b.restorePages(image);
    for (Addr p = 0; p < 4 * kPageBytes; p += kPageBytes) {
        a.write(p + 0x10, 1000 + p);
        b.write(p + 0x18, 2000 + p);
    }
    for (Addr p = 0; p < 4 * kPageBytes; p += kPageBytes) {
        EXPECT_EQ(a.read(p + 0x10), 1000 + p);
        EXPECT_EQ(a.read(p + 0x18), p + 0x18 + 1) << "b's write leaked";
        EXPECT_EQ(b.read(p + 0x18), 2000 + p);
        EXPECT_EQ(b.read(p + 0x10), p + 0x10 + 1) << "a's write leaked";
        EXPECT_EQ(warmed.read(p + 0x10), p + 0x10 + 1)
            << "the producer is isolated from both restored runs";
    }
    EXPECT_EQ(a.pagesAllocated(), 4u);
    EXPECT_EQ(b.pagesAllocated(), 4u);
    EXPECT_EQ(image.list(), pages) << "the image's pages are unchanged";
}

TEST(FunctionalMemoryImage, RepeatedWritesCloneOnlyOnce)
{
    FunctionalMemory mem;
    mem.write(0x0, 5);
    const PageImage image = mem.snapshotPages();
    mem.write(0x0, 6); // clones into the private layer
    // The clone is private: later writes go to it, not to new clones.
    mem.write(0x8, 7);
    mem.write(0x0, 8);
    EXPECT_EQ(mem.read(0x0), 8u);
    EXPECT_EQ(mem.read(0x8), 7u);
    const PageImage after = mem.snapshotPages();
    EXPECT_EQ(layers(after), 2u);
    EXPECT_EQ(after.size(), 1u) << "the clone shadows, it adds no page";
    after.forEachLayer([](const auto &l) {
        EXPECT_EQ(l.pages.size(), 1u) << "one page per layer";
    });
    FunctionalMemory replay;
    replay.restorePages(image);
    EXPECT_EQ(replay.read(0x0), 5u);
    EXPECT_EQ(replay.read(0x8), 0u);
}

TEST(FunctionalMemoryImage, TlbRefillDoesNotLeakWriteValidity)
{
    // Two pages that alias the same translation-cache entry: after the
    // cache entry is repurposed by a read of the aliasing page, a write
    // to the original page must not fast-path into the wrong page.
    constexpr Addr kAlias = 16384 * kPageBytes; // kTlbEntries * page
    FunctionalMemory mem;
    mem.write(0x0, 1);       // page 0 write-valid in the cache
    EXPECT_EQ(mem.read(kAlias), 0u); // read refill repurposes the entry
    mem.write(0x0, 2);       // must resolve page 0, not the alias
    EXPECT_EQ(mem.read(0x0), 2u);
    EXPECT_EQ(mem.read(kAlias), 0u)
        << "the aliasing page must stay untouched";

    // And the snapshot taken mid-pattern stays frozen.
    const PageImage image = mem.snapshotPages();
    mem.write(kAlias, 3); // write-refill the aliased entry
    mem.write(0x0, 4);    // then write the original through a refill
    EXPECT_EQ(mem.read(kAlias), 3u);
    EXPECT_EQ(mem.read(0x0), 4u);
    FunctionalMemory replay;
    replay.restorePages(image);
    EXPECT_EQ(replay.read(0x0), 2u);
    EXPECT_EQ(replay.read(kAlias), 0u);
}

// --------------------- Layered images ---------------------

/** An image of three pages: words at 0x1000, 0x2008 and 0x7000. */
PageImage
threePageImage()
{
    FunctionalMemory builder;
    builder.write(0x1000, 11);
    builder.write(0x2008, 22);
    builder.write(0x7000, 33);
    return builder.snapshotPages();
}

TEST(FunctionalMemoryLayers, SnapshotKeepsContentsAndRestoredReadsSeeThem)
{
    FunctionalMemory builder;
    builder.write(0x1000, 11);
    builder.write(0x2008, 22);
    const PageImage base = builder.snapshotPages();
    EXPECT_EQ(base.size(), 2u);
    EXPECT_EQ(builder.read(0x1000), 11u) << "the builder keeps it as base";
    EXPECT_EQ(builder.pagesAllocated(), 2u);

    FunctionalMemory adopter;
    adopter.restorePages(base);
    EXPECT_EQ(adopter.read(0x1000), 11u);
    EXPECT_EQ(adopter.read(0x2008), 22u);
    EXPECT_EQ(adopter.read(0x3000), 0u) << "pages outside the image read 0";
    EXPECT_EQ(adopter.pagesAllocated(), 2u) << "reads allocate nothing";
    // A restore copies no page: the memory's contents are the image.
    EXPECT_EQ(adopter.snapshotPages().list(), base.list());
}

TEST(FunctionalMemoryLayers, FirstWriteClonesAndLeavesTheBaseUnchanged)
{
    const PageImage base = threePageImage();
    const Page *base_page = pageAt(base, 0x1000);

    FunctionalMemory a, b;
    a.restorePages(base);
    b.restorePages(base);
    EXPECT_EQ(a.read(0x1000), 11u); // cache a read translation first
    a.write(0x1000, 99);            // then write through a clone
    a.write(0x1008, 98);
    EXPECT_EQ(a.read(0x1000), 99u);
    EXPECT_EQ(a.read(0x1008), 98u);
    EXPECT_EQ(a.read(0x2008), 22u) << "unwritten base pages still read";
    EXPECT_EQ(b.read(0x1000), 11u) << "a sibling is isolated";
    EXPECT_EQ(base_page->word(0), 11u) << "the base page is frozen";
    EXPECT_EQ(base_page->word(1), 0u);
    EXPECT_EQ(pageAt(base, 0x1000), base_page);
    EXPECT_EQ(a.pagesAllocated(), 3u) << "a clone shadows, it adds no page";

    a.write(0x5000, 55); // a page outside the base adds one
    EXPECT_EQ(a.pagesAllocated(), 4u);
    EXPECT_EQ(b.pagesAllocated(), 3u);
}

TEST(FunctionalMemoryLayers, SnapshotIsTheMergedSortedImage)
{
    const PageImage base = threePageImage();
    FunctionalMemory mem;
    mem.restorePages(base);
    mem.write(0x2008, 77); // shadows a base page
    mem.write(0x4000, 44); // private only
    mem.write(0x0, 1);     // private only, below every base page

    const PageImage image = mem.snapshotPages();
    ASSERT_EQ(image.size(), 5u);
    EXPECT_EQ(image.size(), mem.pagesAllocated());
    EXPECT_EQ(image.bytes(), 5 * sizeof(SparsePage))
        << "the shadowed base page is not counted";
    EXPECT_EQ(layers(image), 2u) << "laid over the base, not merged in";
    const auto pages = image.list();
    ASSERT_EQ(pages.size(), 5u);
    const Addr want[] = {0x0, 0x1000, 0x2000, 0x4000, 0x7000};
    for (size_t i = 0; i < pages.size(); ++i)
        EXPECT_EQ(pages[i].first, want[i]) << "page " << i;
    EXPECT_EQ(pages[1].second, pageAt(base, 0x1000))
        << "unwritten base pages are shared, not copied";
    EXPECT_NE(pages[2].second, pageAt(base, 0x2000))
        << "a written page comes from the private layer";
    EXPECT_EQ(pages[2].second->word(1), 77u);

    // The snapshot froze the private pages: the next write clones.
    mem.write(0x4000, 45);
    EXPECT_EQ(pages[3].second->word(0), 44u);
    EXPECT_EQ(mem.read(0x4000), 45u);
}

TEST(FunctionalMemoryLayers, KernelImageSnapshotAndLiveMemoryKeepTheirWords)
{
    // A memory on a kernel image is snapshotted, then written on every
    // page: the image, the snapshot and the live memory each read
    // their own words.
    const PageImage kernel = threePageImage();
    FunctionalMemory mem;
    mem.restorePages(kernel);
    mem.write(0x1000, 101); // clones a kernel page
    mem.write(0x9000, 109); // a page new to the kernel image
    const PageImage snap = mem.snapshotPages();
    const Addr pages[] = {0x1000, 0x2000, 0x7000, 0x9000};
    for (Addr p : pages)
        mem.write(p + 8, p + 2);

    FunctionalMemory on_kernel, on_snap;
    on_kernel.restorePages(kernel);
    on_snap.restorePages(snap);
    const uint64_t kernel_words[] = {11, 0, 33, 0};
    const uint64_t snap_words[] = {101, 0, 33, 109};
    for (size_t i = 0; i < 4; ++i) {
        const Addr p = pages[i];
        SCOPED_TRACE(p);
        EXPECT_EQ(on_kernel.read(p), kernel_words[i]);
        EXPECT_EQ(on_kernel.read(p + 8), p == 0x2000 ? 22u : 0u);
        EXPECT_EQ(on_snap.read(p), snap_words[i]);
        EXPECT_EQ(on_snap.read(p + 8), p == 0x2000 ? 22u : 0u);
        EXPECT_EQ(mem.read(p), snap_words[i]);
        EXPECT_EQ(mem.read(p + 8), p + 2);
    }
    EXPECT_EQ(kernel.size(), 3u);
    EXPECT_EQ(snap.size(), 4u);
    EXPECT_EQ(mem.pagesAllocated(), 4u);
}

TEST(FunctionalMemoryLayers, RestoreDropsTheBase)
{
    const PageImage base = threePageImage();
    FunctionalMemory mem;
    mem.restorePages(base);
    EXPECT_EQ(mem.read(0x1000), 11u);
    mem.write(0x2008, 5);

    FunctionalMemory other;
    other.write(0x9000, 9);
    const PageImage image = other.snapshotPages();
    mem.restorePages(image);
    EXPECT_EQ(mem.snapshotPages().list(), image.list())
        << "the memory let go of the base";
    EXPECT_EQ(mem.pagesAllocated(), 1u);
    EXPECT_EQ(mem.read(0x1000), 0u) << "no stale base translation";
    EXPECT_EQ(mem.read(0x2008), 0u) << "no stale private page";
    EXPECT_EQ(mem.read(0x9000), 9u);

    mem.restorePages({});
    EXPECT_EQ(mem.pagesAllocated(), 0u);
    EXPECT_EQ(mem.read(0x9000), 0u);
}

TEST(FunctionalMemoryLayers, RestoringAgainDropsPrivatePages)
{
    const PageImage base = threePageImage();
    FunctionalMemory mem;
    mem.restorePages(base);
    mem.write(0x1000, 99);
    mem.write(0x5000, 55);
    EXPECT_EQ(mem.pagesAllocated(), 4u);
    mem.restorePages(base); // a restart: back to the post-setup image
    EXPECT_EQ(mem.pagesAllocated(), 3u);
    EXPECT_EQ(mem.read(0x1000), 11u);
    EXPECT_EQ(mem.read(0x5000), 0u);
}

// --------------------- Sparse and dense pages ---------------------

constexpr size_t kLimit = FunctionalMemory::kSparseWords;

/** The page @p mem holds at @p page (via a snapshot), or null. It stays
 *  valid while @p mem or the snapshot lives. */
const Page *
handleOf(FunctionalMemory &mem, Addr page)
{
    return pageAt(mem.snapshotPages(), page);
}

TEST(FunctionalMemorySparse, PagesStartSparseAndPromoteOnOverflow)
{
    FunctionalMemory mem;
    mem.write(0x1000, 0); // creates the page, stores no word
    EXPECT_EQ(mem.pagesAllocated(), 1u);
    auto h = handleOf(mem, 0x1000);
    ASSERT_TRUE(h);
    EXPECT_TRUE(h->sparse());
    EXPECT_EQ(static_cast<const SparsePage &>(*h).count, 0u);
    EXPECT_EQ(h->bytes(), sizeof(SparsePage));
    EXPECT_LT(sizeof(SparsePage), kPageBytes / 32);

    for (size_t i = 0; i < kLimit; ++i)
        mem.write(0x1000 + 16 * i, 100 + i);
    EXPECT_TRUE(handleOf(mem, 0x1000)->sparse()) << "the limit fits";
    mem.write(0x1000 + 16 * 3, 7); // rewriting a held word adds none
    EXPECT_TRUE(handleOf(mem, 0x1000)->sparse());
    mem.write(0x1008, 0); // 0 over an absent word stores nothing
    EXPECT_TRUE(handleOf(mem, 0x1000)->sparse());

    mem.write(0x1008, 55); // one nonzero word past the limit promotes
    h = handleOf(mem, 0x1000);
    EXPECT_FALSE(h->sparse());
    EXPECT_EQ(h->bytes(), sizeof(FunctionalMemory::DensePage));
    EXPECT_EQ(mem.read(0x1008), 55u);
    for (size_t i = 0; i < kLimit; ++i)
        EXPECT_EQ(mem.read(0x1000 + 16 * i), i == 3 ? 7u : 100 + i);
    EXPECT_EQ(mem.pagesAllocated(), 1u) << "promotion adds no page";
}

TEST(FunctionalMemorySparse, ZeroDropsAHeldWordAndFreesItsSlot)
{
    FunctionalMemory mem;
    for (size_t i = 0; i < kLimit; ++i)
        mem.write(0x2000 + 8 * i, 1 + i);
    mem.write(0x2000, 0); // frees a slot
    EXPECT_EQ(mem.read(0x2000), 0u);
    mem.write(0x2000 + 8 * kLimit, 9); // fits in the freed slot
    const auto h = handleOf(mem, 0x2000);
    EXPECT_TRUE(h->sparse());
    EXPECT_EQ(static_cast<const SparsePage &>(*h).count, kLimit);
    for (size_t i = 1; i <= kLimit; ++i)
        EXPECT_EQ(mem.read(0x2000 + 8 * i), i == kLimit ? 9u : 1 + i);
}

TEST(FunctionalMemorySparse, WordImagesMatchTheWrittenWordsInBothForms)
{
    // copyTo() writes a page's full word image whatever its form: a
    // sparse page zero-fills around its held words, a dense one copies.
    uint64_t words[FunctionalMemory::kWordsPerPage] = {};
    words[5] = 50;
    words[511] = 5110;
    FunctionalMemory mem;
    for (size_t i = 0; i < FunctionalMemory::kWordsPerPage; ++i)
        if (words[i])
            mem.write(0x1000 + 8 * i, words[i]);
    const Page *few = handleOf(mem, 0x1000);
    ASSERT_TRUE(few->sparse());
    for (size_t i = 0; i < kLimit + 1; ++i) {
        words[100 + i] = i + 1;
        mem.write(0x2000 + 8 * (100 + i), i + 1);
    }
    mem.write(0x2000 + 8 * 5, 50);
    mem.write(0x2000 + 8 * 511, 5110);
    const Page *many = handleOf(mem, 0x2000);
    ASSERT_FALSE(many->sparse());

    uint64_t back[FunctionalMemory::kWordsPerPage];
    many->copyTo(back);
    EXPECT_EQ(std::memcmp(back, words, kPageBytes), 0);
    few->copyTo(back);
    for (size_t i = 0; i < FunctionalMemory::kWordsPerPage; ++i) {
        const uint64_t want = i == 5 ? 50 : i == 511 ? 5110 : 0;
        EXPECT_EQ(back[i], want) << i;
        EXPECT_EQ(few->word(i), want) << i;
    }
}

TEST(FunctionalMemorySparse, SharedSparsePagesCloneAndStayFrozen)
{
    // A sparse base page: a 0 over an absent word leaves it shared;
    // a real write clones it, still sparse; promotion happens on the
    // clone only.
    FunctionalMemory builder;
    builder.write(0x3000, 33);
    const PageImage base = builder.snapshotPages();
    const Page *base_page = pageAt(base, 0x3000);
    ASSERT_TRUE(base_page->sparse());

    FunctionalMemory mem;
    mem.restorePages(base);
    mem.write(0x3008, 0);
    EXPECT_EQ(handleOf(mem, 0x3000), base_page)
        << "0 over an absent word clones nothing";
    mem.write(0x3010, 0); // without a cached translation too
    mem.restorePages(base);
    mem.write(0x3018, 0);
    EXPECT_EQ(handleOf(mem, 0x3000), base_page);

    mem.write(0x3008, 8);
    const Page *clone = handleOf(mem, 0x3000);
    EXPECT_NE(clone, base_page);
    EXPECT_TRUE(clone->sparse());

    // Snapshot the clone, then push the live page past the limit.
    const PageImage image = mem.snapshotPages();
    for (size_t i = 0; i < kLimit; ++i)
        mem.write(0x3100 + 8 * i, 200 + i);
    EXPECT_FALSE(handleOf(mem, 0x3000)->sparse());
    EXPECT_EQ(mem.read(0x3000), 33u);
    EXPECT_EQ(mem.read(0x3008), 8u);
    EXPECT_TRUE(clone->sparse()) << "the snapshot's page stays as taken";
    EXPECT_EQ(clone->word(0x100 / 8), 0u);
    EXPECT_EQ(base_page->word(1), 0u) << "the base page is frozen";
    EXPECT_EQ(base_page->word(0), 33u);
    EXPECT_EQ(base.bytes(), sizeof(SparsePage));
    EXPECT_EQ(pageAt(image, 0x3000), clone);
}

/**
 * Randomized differential test against a plain word map: reads,
 * writes (a quarter of them zeros, some unaligned), snapshots and
 * restores, over twelve pages (half of them aliasing the others'
 * translation-cache entries) whose writes mostly land on a few words
 * more than a sparse page holds, so pages cross the promotion limit in
 * every layer. Snapshots stack layers over restored images. Every read
 * must match the reference, and every saved snapshot must still read
 * as it did when it was taken, with an exact page count and byte total.
 */
TEST(FunctionalMemoryDifferential, MatchesAWordMapReference)
{
    using Ref = std::unordered_map<Addr, uint64_t>; // word -> value
    struct State
    {
        Ref words;
        std::set<Addr> pages; // every page written, zeros included
    };
    struct Saved
    {
        PageImage image;
        State state;
    };
    constexpr Addr kAlias = 16384 * kPageBytes; // translation-cache size
    Rng rng(2018);
    auto pick = [&rng] {
        const Addr page = 0x10000000 + rng.below(6) * kPageBytes +
                          (rng.below(2) ? kAlias : 0);
        const Addr word = rng.below(4) ? rng.below(kLimit + 3)
                                       : rng.below(kPageBytes / 8);
        return page + word * 8 + (rng.below(8) ? 0 : rng.below(8));
    };
    auto expected = [](const State &st, Addr a) {
        auto it = st.words.find(a & ~Addr(7));
        return it == st.words.end() ? uint64_t(0) : it->second;
    };
    auto matches = [&](const FunctionalMemory &m, const State &st) {
        for (const auto &[a, v] : st.words)
            if (m.read(a) != v)
                return ::testing::AssertionFailure()
                       << "word 0x" << std::hex << a;
        for (int k = 0; k < 64; ++k) {
            const Addr a = pick();
            if (m.read(a) != expected(st, a))
                return ::testing::AssertionFailure()
                       << "probe 0x" << std::hex << a;
        }
        if (m.pagesAllocated() != st.pages.size())
            return ::testing::AssertionFailure()
                   << m.pagesAllocated() << " pages vs " << st.pages.size();
        return ::testing::AssertionSuccess();
    };
    // The image's own totals against a walk of its pages.
    auto exact = [](const PageImage &image) {
        const auto pages = image.list();
        size_t bytes = 0;
        for (const auto &kv : pages)
            bytes += kv.second->bytes();
        return image.size() == pages.size() && image.bytes() == bytes;
    };

    FunctionalMemory mem;
    State st;
    std::vector<Saved> snaps;
    size_t sparse_seen = 0, dense_seen = 0, deepest = 0, restores = 0;
    auto tally = [&](const PageImage &image) {
        for (const auto &kv : image.list())
            ++(kv.second->sparse() ? sparse_seen : dense_seen);
        deepest = std::max(deepest, layers(image));
    };

    for (int step = 0; step < 30000; ++step) {
        const uint64_t r = rng.below(1000);
        if (r < 450) {
            const Addr a = pick();
            const uint64_t v = rng.below(4) ? rng.next() | 1 : 0;
            mem.write(a, v);
            if (v)
                st.words[a & ~Addr(7)] = v;
            else
                st.words.erase(a & ~Addr(7));
            st.pages.insert(pageAddr(a));
        } else if (r < 900) {
            const Addr a = pick();
            ASSERT_EQ(mem.read(a), expected(st, a))
                << "step " << step << " addr 0x" << std::hex << a;
        } else if (r < 950) {
            Saved s{mem.snapshotPages(), st};
            ASSERT_TRUE(exact(s.image)) << "step " << step;
            ASSERT_EQ(s.image.size(), st.pages.size()) << "step " << step;
            tally(s.image);
            if (snaps.size() < 12)
                snaps.push_back(std::move(s));
            else
                snaps[rng.below(snaps.size())] = std::move(s);
        } else if (r < 990) {
            if (snaps.empty())
                continue;
            const Saved &s = snaps[rng.below(snaps.size())];
            mem.restorePages(s.image);
            st = s.state;
            ++restores;
        } else {
            ASSERT_TRUE(matches(mem, st)) << "step " << step;
            auto probe = std::make_unique<FunctionalMemory>();
            for (const Saved &s : snaps) {
                probe->restorePages(s.image);
                ASSERT_TRUE(matches(*probe, s.state))
                    << "snapshot frozen, step " << step;
                ASSERT_TRUE(exact(s.image)) << "step " << step;
            }
        }
    }
    EXPECT_TRUE(matches(mem, st));
    EXPECT_GT(restores, 0u);
    EXPECT_GT(deepest, 2u) << "snapshots stacked layers";
    EXPECT_GT(sparse_seen, 0u) << "pages stayed sparse";
    EXPECT_GT(dense_seen, 0u) << "pages crossed the promotion limit";
}

} // namespace
} // namespace catchsim

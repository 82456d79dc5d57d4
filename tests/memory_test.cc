/**
 * @file
 * Unit tests for the sparse functional memory, including the
 * copy-on-write page-sharing contract behind warmed-state snapshots:
 * images share pages with the live memory, sharing freezes them, and
 * the first write to a shared page clones instead of mutating — and the
 * shared base layer kernel images are adopted through.
 */

#include <gtest/gtest.h>

#include <cstring>

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

// --------------------- Copy-on-write sharing ---------------------

TEST(FunctionalMemoryCow, SnapshotSharesPagesWithoutCopying)
{
    FunctionalMemory mem;
    mem.write(0x1000, 11);
    mem.write(0x100000, 22);
    FunctionalMemory::PageImage image = mem.snapshotPages();
    ASSERT_EQ(image.size(), 2u);
    EXPECT_LT(image[0].first, image[1].first) << "ascending addresses";
    // Shared, not duplicated: the image holds the live pages.
    for (const auto &kv : image)
        EXPECT_EQ(kv.second.use_count(), 2) << "image + live map";
}

TEST(FunctionalMemoryCow, WriteAfterSnapshotClonesNotMutates)
{
    FunctionalMemory mem;
    mem.write(0x1000, 11);
    mem.write(0x2008, 22);
    FunctionalMemory::PageImage image = mem.snapshotPages();

    mem.write(0x1000, 99); // first write to a shared page: clones
    mem.write(0x2008, 88);
    EXPECT_EQ(mem.read(0x1000), 99u);
    EXPECT_EQ(mem.read(0x2008), 88u);

    FunctionalMemory replay;
    replay.restorePages(image);
    EXPECT_EQ(replay.read(0x1000), 11u)
        << "the snapshot must stay bitwise-frozen";
    EXPECT_EQ(replay.read(0x2008), 22u);
    // After the clone the image is each page's sole extra owner.
    EXPECT_EQ(image[0].second.use_count(), 2) << "image + replay map";
}

TEST(FunctionalMemoryCow, RestoredSiblingsDivergeIndependently)
{
    FunctionalMemory warmed;
    for (Addr a = 0; a < 4 * kPageBytes; a += 8)
        warmed.write(a, a + 1);
    FunctionalMemory::PageImage image = warmed.snapshotPages();

    FunctionalMemory a, b;
    a.restorePages(image);
    b.restorePages(image);
    a.write(0x10, 1000);
    b.write(0x10, 2000);
    EXPECT_EQ(a.read(0x10), 1000u);
    EXPECT_EQ(b.read(0x10), 2000u);
    EXPECT_EQ(warmed.read(0x10), 0x10u + 1)
        << "the producer is isolated from both restored runs";
    // Untouched pages remain physically shared by all four owners.
    EXPECT_EQ(image[3].second.use_count(), 4)
        << "image + producer + two siblings";
}

TEST(FunctionalMemoryCow, RepeatedWritesCloneOnlyOnce)
{
    FunctionalMemory mem;
    mem.write(0x0, 5);
    FunctionalMemory::PageImage image = mem.snapshotPages();
    mem.write(0x0, 6);
    const void *cloned = nullptr;
    {
        FunctionalMemory probe;
        probe.restorePages(mem.snapshotPages());
        cloned = &probe; // silence unused warnings; address irrelevant
    }
    // After the first post-snapshot write the page is exclusive again:
    // later writes take the fast path and no further copies happen.
    mem.write(0x8, 7);
    mem.write(0x0, 8);
    EXPECT_EQ(mem.read(0x0), 8u);
    EXPECT_EQ(mem.read(0x8), 7u);
    EXPECT_NE(cloned, nullptr);
    FunctionalMemory replay;
    replay.restorePages(image);
    EXPECT_EQ(replay.read(0x0), 5u);
    EXPECT_EQ(replay.read(0x8), 0u);
}

TEST(FunctionalMemoryCow, TlbRefillDoesNotLeakWriteValidity)
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
    FunctionalMemory::PageImage image = mem.snapshotPages();
    mem.write(kAlias, 3); // write-refill the aliased entry
    mem.write(0x0, 4);    // then write the original through a refill
    EXPECT_EQ(mem.read(kAlias), 3u);
    EXPECT_EQ(mem.read(0x0), 4u);
    FunctionalMemory replay;
    replay.restorePages(image);
    EXPECT_EQ(replay.read(0x0), 2u);
    EXPECT_EQ(replay.read(kAlias), 0u);
}

// --------------------- Shared base layer ---------------------

/** A base layer of three pages: words at 0x1000, 0x2008 and 0x7000. */
FunctionalMemory::BasePtr
threePageBase()
{
    FunctionalMemory builder;
    builder.write(0x1000, 11);
    builder.write(0x2008, 22);
    builder.write(0x7000, 33);
    return builder.publishBase();
}

TEST(FunctionalMemoryBase, PublishKeepsContentsAndAdoptedReadsSeeThem)
{
    FunctionalMemory builder;
    builder.write(0x1000, 11);
    builder.write(0x2008, 22);
    const FunctionalMemory::BasePtr base = builder.publishBase();
    ASSERT_TRUE(base);
    EXPECT_EQ(base->size(), 2u);
    EXPECT_EQ(builder.read(0x1000), 11u) << "the publisher adopts it too";
    EXPECT_EQ(builder.pagesAllocated(), 2u);

    FunctionalMemory adopter;
    adopter.adoptBase(base);
    EXPECT_EQ(adopter.read(0x1000), 11u);
    EXPECT_EQ(adopter.read(0x2008), 22u);
    EXPECT_EQ(adopter.read(0x3000), 0u) << "pages outside the base read 0";
    EXPECT_EQ(adopter.pagesAllocated(), 2u) << "reads allocate nothing";
    EXPECT_EQ(base.use_count(), 3) << "base + publisher + adopter";
    // Adoption copies no page handle: each page is held by the base map
    // alone.
    for (const auto &kv : *base)
        EXPECT_EQ(kv.second.use_count(), 1);
}

TEST(FunctionalMemoryBase, FirstWriteClonesAndLeavesTheBaseUnchanged)
{
    const FunctionalMemory::BasePtr base = threePageBase();
    const FunctionalMemory::Page *base_page = base->at(0x1000).get();

    FunctionalMemory a, b;
    a.adoptBase(base);
    b.adoptBase(base);
    EXPECT_EQ(a.read(0x1000), 11u); // cache a read translation first
    a.write(0x1000, 99);            // then write through a clone
    a.write(0x1008, 98);
    EXPECT_EQ(a.read(0x1000), 99u);
    EXPECT_EQ(a.read(0x1008), 98u);
    EXPECT_EQ(a.read(0x2008), 22u) << "unwritten base pages still read";
    EXPECT_EQ(b.read(0x1000), 11u) << "a sibling adopter is isolated";
    EXPECT_EQ(base_page->words[0], 11u) << "the base page is frozen";
    EXPECT_EQ(base_page->words[1], 0u);
    EXPECT_EQ(base->at(0x1000).get(), base_page);
    EXPECT_EQ(a.pagesAllocated(), 3u) << "a clone shadows, it adds no page";

    a.write(0x5000, 55); // a page outside the base adds one
    EXPECT_EQ(a.pagesAllocated(), 4u);
    EXPECT_EQ(b.pagesAllocated(), 3u);
}

TEST(FunctionalMemoryBase, SnapshotIsTheMergedSortedImage)
{
    const FunctionalMemory::BasePtr base = threePageBase();
    FunctionalMemory mem;
    mem.adoptBase(base);
    mem.write(0x2008, 77); // shadows a base page
    mem.write(0x4000, 44); // private only
    mem.write(0x0, 1);     // private only, below every base page

    const FunctionalMemory::PageImage image = mem.snapshotPages();
    ASSERT_EQ(image.size(), 5u);
    EXPECT_EQ(image.size(), mem.pagesAllocated());
    const Addr want[] = {0x0, 0x1000, 0x2000, 0x4000, 0x7000};
    for (size_t i = 0; i < image.size(); ++i)
        EXPECT_EQ(image[i].first, want[i]) << "page " << i;
    EXPECT_EQ(image[1].second.get(), base->at(0x1000).get())
        << "unwritten base pages are shared, not copied";
    EXPECT_NE(image[2].second.get(), base->at(0x2000).get())
        << "a written page comes from the private layer";
    EXPECT_EQ(image[2].second->words[1], 77u);

    // The snapshot froze the private pages: the next write clones.
    mem.write(0x4000, 45);
    EXPECT_EQ(image[3].second->words[0], 44u);
    EXPECT_EQ(mem.read(0x4000), 45u);
}

TEST(FunctionalMemoryBase, RestoreDropsTheBase)
{
    const FunctionalMemory::BasePtr base = threePageBase();
    FunctionalMemory mem;
    mem.adoptBase(base);
    EXPECT_EQ(mem.read(0x1000), 11u);
    mem.write(0x2008, 5);

    FunctionalMemory other;
    other.write(0x9000, 9);
    mem.restorePages(other.snapshotPages());
    EXPECT_EQ(base.use_count(), 1) << "the memory let go of the base";
    EXPECT_EQ(mem.pagesAllocated(), 1u);
    EXPECT_EQ(mem.read(0x1000), 0u) << "no stale base translation";
    EXPECT_EQ(mem.read(0x2008), 0u) << "no stale private page";
    EXPECT_EQ(mem.read(0x9000), 9u);

    mem.restorePages({});
    EXPECT_EQ(mem.pagesAllocated(), 0u);
    EXPECT_EQ(mem.read(0x9000), 0u);
}

TEST(FunctionalMemoryBase, AdoptingAgainDropsPrivatePages)
{
    const FunctionalMemory::BasePtr base = threePageBase();
    FunctionalMemory mem;
    mem.adoptBase(base);
    mem.write(0x1000, 99);
    mem.write(0x5000, 55);
    EXPECT_EQ(mem.pagesAllocated(), 4u);
    mem.adoptBase(base); // a restart: back to the post-setup image
    EXPECT_EQ(mem.pagesAllocated(), 3u);
    EXPECT_EQ(mem.read(0x1000), 11u);
    EXPECT_EQ(mem.read(0x5000), 0u);
}

} // namespace
} // namespace catchsim

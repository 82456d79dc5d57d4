/**
 * @file
 * Unit tests for the sparse functional memory, including the
 * copy-on-write page-sharing contract behind warmed-state snapshots:
 * images share pages with the live memory, sharing freezes them, and
 * the first write to a shared page clones instead of mutating.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace catchsim

/**
 * @file
 * Unit tests for the sparse functional memory, including the
 * copy-on-write page-sharing contract behind warmed-state snapshots:
 * images share pages with the live memory, sharing freezes them, and
 * the first write to a shared page clones instead of mutating — and the
 * shared base layer kernel images are adopted through. Pages come in a
 * sparse and a dense form; a randomized differential test checks every
 * read against a plain word map across both.
 */

#include <gtest/gtest.h>

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
    EXPECT_EQ(base->pages.size(), 2u);
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
    for (const auto &kv : base->pages)
        EXPECT_EQ(kv.second.use_count(), 1);
}

TEST(FunctionalMemoryBase, FirstWriteClonesAndLeavesTheBaseUnchanged)
{
    const FunctionalMemory::BasePtr base = threePageBase();
    const FunctionalMemory::Page *base_page = base->pages.at(0x1000).get();

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
    EXPECT_EQ(base_page->word(0), 11u) << "the base page is frozen";
    EXPECT_EQ(base_page->word(1), 0u);
    EXPECT_EQ(base->pages.at(0x1000).get(), base_page);
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
    EXPECT_EQ(image[1].second.get(), base->pages.at(0x1000).get())
        << "unwritten base pages are shared, not copied";
    EXPECT_NE(image[2].second.get(), base->pages.at(0x2000).get())
        << "a written page comes from the private layer";
    EXPECT_EQ(image[2].second->word(1), 77u);

    // The snapshot froze the private pages: the next write clones.
    mem.write(0x4000, 45);
    EXPECT_EQ(image[3].second->word(0), 44u);
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

// --------------------- Sparse and dense pages ---------------------

using Page = FunctionalMemory::Page;
using SparsePage = FunctionalMemory::SparsePage;
constexpr size_t kLimit = FunctionalMemory::kSparseWords;

/** The handle @p mem holds for @p page (via a snapshot), or null. */
FunctionalMemory::PagePtr
handleOf(const FunctionalMemory &mem, Addr page)
{
    for (const auto &kv : mem.snapshotPages())
        if (kv.first == page)
            return kv.second;
    return nullptr;
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
    const FunctionalMemory::PagePtr few = handleOf(mem, 0x1000);
    ASSERT_TRUE(few->sparse());
    for (size_t i = 0; i < kLimit + 1; ++i) {
        words[100 + i] = i + 1;
        mem.write(0x2000 + 8 * (100 + i), i + 1);
    }
    mem.write(0x2000 + 8 * 5, 50);
    mem.write(0x2000 + 8 * 511, 5110);
    const FunctionalMemory::PagePtr many = handleOf(mem, 0x2000);
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
    const FunctionalMemory::BasePtr base = builder.publishBase();
    const Page *base_page = base->pages.at(0x3000).get();
    ASSERT_TRUE(base_page->sparse());

    FunctionalMemory mem;
    mem.adoptBase(base);
    mem.write(0x3008, 0);
    EXPECT_EQ(handleOf(mem, 0x3000).get(), base_page)
        << "0 over an absent word clones nothing";
    mem.write(0x3010, 0); // without a cached translation too
    mem.adoptBase(base);
    mem.write(0x3018, 0);
    EXPECT_EQ(handleOf(mem, 0x3000).get(), base_page);

    mem.write(0x3008, 8);
    auto clone = handleOf(mem, 0x3000);
    EXPECT_NE(clone.get(), base_page);
    EXPECT_TRUE(clone->sparse());

    // Snapshot the clone, then push the live page past the limit.
    const FunctionalMemory::PageImage image = mem.snapshotPages();
    for (size_t i = 0; i < kLimit; ++i)
        mem.write(0x3100 + 8 * i, 200 + i);
    EXPECT_FALSE(handleOf(mem, 0x3000)->sparse());
    EXPECT_EQ(mem.read(0x3000), 33u);
    EXPECT_EQ(mem.read(0x3008), 8u);
    EXPECT_TRUE(clone->sparse()) << "the snapshot's page stays as taken";
    EXPECT_EQ(clone->word(0x100 / 8), 0u);
    EXPECT_EQ(base_page->word(1), 0u) << "the base page is frozen";
    EXPECT_EQ(base_page->word(0), 33u);
    EXPECT_EQ(base->bytes, sizeof(SparsePage));
}

/**
 * Randomized differential test against a plain word map: reads,
 * writes (a quarter of them zeros, some unaligned), snapshots and
 * restores, and publishing and adopting base layers, over twelve pages
 * (half of them aliasing the others' translation-cache entries) whose
 * writes mostly land on a few words more than a sparse page holds, so
 * pages cross the promotion limit in every layer. Every read must match
 * the reference, and every saved snapshot and base must still read as
 * it did when it was taken.
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
        FunctionalMemory::PageImage image;
        State state;
    };
    struct SavedBase
    {
        FunctionalMemory::BasePtr base;
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

    FunctionalMemory mem;
    State st;
    bool has_base = false;
    std::vector<Saved> snaps;
    std::vector<SavedBase> bases;
    size_t sparse_seen = 0, dense_seen = 0;
    auto tally = [&](const FunctionalMemory::PageImage &image) {
        for (const auto &kv : image)
            ++(kv.second->sparse() ? sparse_seen : dense_seen);
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
        } else if (r < 940) {
            Saved s{mem.snapshotPages(), st};
            tally(s.image);
            if (snaps.size() < 8)
                snaps.push_back(std::move(s));
            else
                snaps[rng.below(snaps.size())] = std::move(s);
        } else if (r < 960) {
            if (snaps.empty())
                continue;
            const Saved &s = snaps[rng.below(snaps.size())];
            mem.restorePages(s.image);
            st = s.state;
            has_base = false;
        } else if (r < 990) {
            if (!has_base) {
                SavedBase b{mem.publishBase(), st};
                if (bases.size() < 8)
                    bases.push_back(std::move(b));
                else
                    bases[rng.below(bases.size())] = std::move(b);
                has_base = true;
            } else {
                const SavedBase &b = bases[rng.below(bases.size())];
                mem.adoptBase(b.base);
                st = b.state;
            }
        } else {
            ASSERT_TRUE(matches(mem, st)) << "step " << step;
            auto probe = std::make_unique<FunctionalMemory>();
            for (const Saved &s : snaps) {
                probe->restorePages(s.image);
                ASSERT_TRUE(matches(*probe, s.state))
                    << "snapshot frozen, step " << step;
            }
            for (const SavedBase &b : bases) {
                probe->adoptBase(b.base);
                ASSERT_TRUE(matches(*probe, b.state))
                    << "base frozen, step " << step;
            }
        }
    }
    EXPECT_TRUE(matches(mem, st));
    EXPECT_GT(bases.size(), 1u);
    EXPECT_GT(sparse_seen, 0u) << "pages stayed sparse";
    EXPECT_GT(dense_seen, 0u) << "pages crossed the promotion limit";
}

} // namespace
} // namespace catchsim

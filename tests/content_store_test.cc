/**
 * @file
 * MemoLru, the LRU behind the chunk, warm-state and kernel-image
 * stores, pinned once through a minimal test facade: exact-budget
 * eviction order, find() recency touches, the one-resident-value
 * floor, first-writer-wins, the sharing-aware charge (a part shared
 * by resident values is charged once), and threads sharing one
 * evicting store (the TSan CI job runs the *Concurrent* cases). The
 * result store's record format is pinned by
 * tests/result_store_test.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/content_store.hh"

namespace catchsim
{
namespace
{

/** Test value: a byte string plus memory-only parts that other values
 *  may share (the role image layers play for warmed-state snapshots). */
struct Blob
{
    std::string bytes;
    std::vector<std::shared_ptr<const std::string>> parts;
};
using BlobPtr = std::shared_ptr<const Blob>;

/** Minimal LRU facade: a blob is charged its bytes plus its parts. */
class BlobLru : public MemoLru
{
  public:
    explicit BlobLru(size_t budget = size_t(1) << 20) : MemoLru(budget) {}

    BlobPtr
    get(const std::string &key)
    {
        return std::static_pointer_cast<const Blob>(find(key));
    }

    BlobPtr
    set(const std::string &key, Blob blob)
    {
        return std::static_pointer_cast<const Blob>(
            put(key, std::make_shared<const Blob>(std::move(blob))));
    }

  protected:
    size_t
    charge(const void *value, const PartFn &shared) const override
    {
        const Blob &b = *static_cast<const Blob *>(value);
        for (const auto &p : b.parts)
            shared(p.get(), p->size());
        return b.bytes.size();
    }
};

Blob
blobOf(size_t n, char fill)
{
    return Blob{std::string(n, fill), {}};
}

std::string
keyOf(int n)
{
    return "key-" + std::to_string(n);
}

// -------------------------- MemoLru ------------------------------

TEST(MemoLru, FindMissesColdThenHitsAfterPutFirstWriterWins)
{
    BlobLru store;
    EXPECT_EQ(store.get(keyOf(0)), nullptr);
    auto put = store.set(keyOf(0), blobOf(256, 'a'));
    ASSERT_NE(put, nullptr);
    EXPECT_EQ(store.get(keyOf(0)), put)
        << "the resident value is shared, not copied";
    EXPECT_EQ(store.set(keyOf(0), blobOf(256, 'a')), put)
        << "a duplicate put returns the resident value";
    auto s = store.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.puts, 1u) << "duplicates are not re-published";
    EXPECT_EQ(store.residentBytes(), 256u);
}

TEST(MemoLru, EvictsLeastRecentlyUsedAtExactBudget)
{
    constexpr size_t bytes = 256;
    BlobLru store(3 * bytes); // exactly three values
    for (int k = 0; k < 3; ++k)
        store.set(keyOf(k), blobOf(bytes, 'a'));
    EXPECT_EQ(store.stats().evictions, 0u)
        << "at budget is not over budget";
    EXPECT_EQ(store.residentBytes(), 3 * bytes);

    // Touch value 0: it becomes most-recent, value 1 the LRU victim.
    EXPECT_NE(store.get(keyOf(0)), nullptr);
    store.set(keyOf(3), blobOf(bytes, 'a'));
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.residentBytes(), 3 * bytes);
    EXPECT_EQ(store.get(keyOf(1)), nullptr)
        << "the least-recently-used value is the victim";
    EXPECT_NE(store.get(keyOf(0)), nullptr);
    EXPECT_NE(store.get(keyOf(2)), nullptr);
    EXPECT_NE(store.get(keyOf(3)), nullptr);
}

TEST(MemoLru, BudgetFloorKeepsTheNewestValueResident)
{
    BlobLru store(1); // below a single value
    auto a = store.set(keyOf(0), blobOf(256, 'a'));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(store.residentBytes(), 256u)
        << "never evicted below one resident value";
    ASSERT_NE(store.set(keyOf(1), blobOf(256, 'b')), nullptr);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.get(keyOf(0)), nullptr);
    // Shared ownership keeps an evicted-then-reheld value valid.
    EXPECT_EQ(a->bytes.size(), 256u);
}

TEST(MemoLru, SharedPartsAreChargedOnce)
{
    // Two resident values share one part and each hold one of their
    // own: the shared bytes count once, evicting one value keeps them
    // charged for the survivor, and evicting both returns the charge
    // to zero — the image-layer accounting of warmed-state
    // snapshots, checked at the primitive.
    auto shared = std::make_shared<const std::string>(1000, 's');
    auto own_a = std::make_shared<const std::string>(100, 'a');
    auto own_b = std::make_shared<const std::string>(200, 'b');
    BlobLru store;
    store.set(keyOf(0), Blob{"xy", {shared, own_a}});
    EXPECT_EQ(store.residentBytes(), 2u + 1000 + 100);
    store.set(keyOf(1), Blob{"xyz", {shared, own_b}});
    EXPECT_EQ(store.residentBytes(), (2u + 1000 + 100) + (3 + 200))
        << "the shared part is charged once";

    store.remove(keyOf(0));
    EXPECT_EQ(store.residentBytes(), 3u + 1000 + 200)
        << "the survivor still holds the shared part";
    store.remove(keyOf(1));
    EXPECT_EQ(store.residentBytes(), 0u);

    // The same through LRU evictions: a budget that holds only one of
    // the two evicts the older, and the floor keeps the newer charged.
    BlobLru tight(1);
    tight.set(keyOf(0), Blob{"xy", {shared, own_a}});
    tight.set(keyOf(1), Blob{"xyz", {shared, own_b}});
    EXPECT_EQ(tight.stats().evictions, 1u);
    EXPECT_EQ(tight.residentBytes(), 3u + 1000 + 200);
    tight.set(keyOf(2), Blob{"", {}});
    EXPECT_EQ(tight.stats().evictions, 2u);
    EXPECT_EQ(tight.residentBytes(), 0u)
        << "evicting both sharers releases the shared part";
}

// ------------------------ Concurrency ----------------------------

TEST(MemoLruConcurrent, ThreadsShareOneEvictingStore)
{
    // Eight threads publish and read overlapping keys through a store
    // whose budget holds two values: every read sees the canonical
    // value, and evictions race with finds and puts.
    BlobLru store(2 * 128);
    auto blob = [](int k) { return blobOf(128, char('a' + k % 6)); };
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&store, &blob, t] {
            for (int k = t; k < t + 50; ++k) {
                store.set(keyOf(k % 6), blob(k));
                if (auto got = store.get(keyOf((k + 1) % 6))) {
                    ASSERT_EQ(got->bytes, blob(k + 1).bytes);
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_GT(store.stats().evictions, 0u);
}

} // namespace
} // namespace catchsim

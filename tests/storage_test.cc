#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "vsim/cache/page_cache.h"
#include "vsim/common/rng.h"
#include "vsim/storage/paged_file.h"
#include "vsim/storage/vector_set_store.h"

namespace vsim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- PagedFile ----------------------------------------------------------

TEST(PagedFileTest, CreateAllocateReadWrite) {
  const std::string path = TempPath("pf1.vspg");
  StatusOr<PagedFile> file = PagedFile::Create(path, 512);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->page_count(), 0u);
  StatusOr<PageId> p1 = file->Allocate();
  StatusOr<PageId> p2 = file->Allocate();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(*p2, 2u);

  std::vector<char> data(512, 'x');
  std::memcpy(data.data(), "hello", 5);
  ASSERT_TRUE(file->Write(*p1, data.data()).ok());
  std::vector<char> back(512, 0);
  ASSERT_TRUE(file->Read(*p1, back.data()).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), 512), 0);
  // The other page stays zeroed.
  ASSERT_TRUE(file->Read(*p2, back.data()).ok());
  EXPECT_EQ(back[0], 0);
  std::remove(path.c_str());
}

TEST(PagedFileTest, PersistsAcrossReopen) {
  const std::string path = TempPath("pf2.vspg");
  {
    StatusOr<PagedFile> file = PagedFile::Create(path, 512);
    ASSERT_TRUE(file.ok());
    StatusOr<PageId> p = file->Allocate();
    ASSERT_TRUE(p.ok());
    std::vector<char> data(512, 7);
    ASSERT_TRUE(file->Write(*p, data.data()).ok());
    ASSERT_TRUE(file->Sync().ok());
  }  // destructor persists the header
  StatusOr<PagedFile> reopened = PagedFile::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->page_size(), 512u);
  EXPECT_EQ(reopened->page_count(), 1u);
  std::vector<char> back(512, 0);
  ASSERT_TRUE(reopened->Read(1, back.data()).ok());
  EXPECT_EQ(back[100], 7);
  std::remove(path.c_str());
}

TEST(PagedFileTest, RejectsBadInput) {
  EXPECT_FALSE(PagedFile::Create(TempPath("pf3.vspg"), 100).ok());
  EXPECT_FALSE(PagedFile::Open("/nonexistent/file.vspg").ok());
  // Non-paged file content.
  const std::string junk = TempPath("junk.vspg");
  std::FILE* f = std::fopen(junk.c_str(), "wb");
  std::fputs("this is not a paged file at all, not even close", f);
  std::fclose(f);
  EXPECT_FALSE(PagedFile::Open(junk).ok());
  std::remove(junk.c_str());

  StatusOr<PagedFile> file = PagedFile::Create(TempPath("pf4.vspg"), 512);
  ASSERT_TRUE(file.ok());
  std::vector<char> buf(512);
  EXPECT_FALSE(file->Read(0, buf.data()).ok());   // header not readable
  EXPECT_FALSE(file->Read(99, buf.data()).ok());  // out of range
  std::remove(TempPath("pf4.vspg").c_str());
}

// --- PagedFile concurrency ----------------------------------------------

TEST(PagedFileTest, ConcurrentPositionedIo) {
  const std::string path = TempPath("pf5.vspg");
  StatusOr<PagedFile> file = PagedFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  constexpr int kPages = 16;
  std::vector<PageId> pages;
  for (int i = 0; i < kPages; ++i) {
    StatusOr<PageId> p = file->Allocate();
    ASSERT_TRUE(p.ok());
    std::vector<char> data(512, static_cast<char>('a' + i));
    ASSERT_TRUE(file->Write(*p, data.data()).ok());
    pages.push_back(*p);
  }
  // pread/pwrite have no shared stream cursor: concurrent readers on
  // distinct pages must each see their own page's fill byte, and
  // concurrent Allocate calls must hand out distinct ids.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      std::vector<char> buf(512);
      for (int round = 0; round < 200; ++round) {
        const int i = (t * 7 + round) % kPages;
        if (!file->Read(pages[i], buf.data()).ok() ||
            buf[0] != static_cast<char>('a' + i) ||
            buf[511] != static_cast<char>('a' + i)) {
          failures.fetch_add(1, std::memory_order_seq_cst);
        }
      }
    });
  }
  std::vector<std::thread> allocators;
  std::array<PageId, 4> allocated{};
  for (int t = 0; t < 4; ++t) {
    allocators.emplace_back([&, t] {
      StatusOr<PageId> p = file->Allocate();
      allocated[t] = p.ok() ? *p : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (auto& th : allocators) th.join();
  EXPECT_EQ(failures.load(std::memory_order_seq_cst), 0);
  std::sort(allocated.begin(), allocated.end());
  for (size_t i = 0; i < allocated.size(); ++i) {
    EXPECT_EQ(allocated[i], static_cast<PageId>(kPages + 1 + i));
  }
  EXPECT_EQ(file->page_count(), static_cast<uint64_t>(kPages + 4));
  std::remove(path.c_str());
}

// --- ShardedBufferPool ---------------------------------------------------
// Single-shard, deterministic behavior; the concurrent stress suites
// live in cache_pool_test.cc. PoolOptions{N, 1} forces one shard so the
// clock sweep order is predictable.

TEST(BufferPoolTest, HitsAndMisses) {
  const std::string path = TempPath("bp1.vspg");
  StatusOr<PagedFile> file = PagedFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) {
    StatusOr<PageId> p = file->Allocate();
    ASSERT_TRUE(p.ok());
    pages.push_back(*p);
  }
  cache::ShardedBufferPool pool(&*file, cache::PoolOptions{2, 1});
  {
    StatusOr<cache::PageHandle> h = pool.Fetch(pages[0]);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.misses(), 1u);
  {
    StatusOr<cache::PageHandle> h = pool.Fetch(pages[0]);  // cached
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.hits(), 1u);
  // Fill beyond capacity: the clock evicts page 1 (page 0's repeat hit
  // set its reference bit, buying it a second chance).
  { auto h = pool.Fetch(pages[1]); ASSERT_TRUE(h.ok()); }
  { auto h = pool.Fetch(pages[2]); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.evictions(), 1u);
  { auto h = pool.Fetch(pages[1]); ASSERT_TRUE(h.ok()); }  // miss again
  EXPECT_EQ(pool.misses(), 4u);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, DirtyPagesWrittenBackOnEviction) {
  const std::string path = TempPath("bp2.vspg");
  StatusOr<PagedFile> file = PagedFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  StatusOr<PageId> p1 = file->Allocate();
  StatusOr<PageId> p2 = file->Allocate();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  cache::ShardedBufferPool pool(&*file, cache::PoolOptions{1, 1});
  {
    StatusOr<cache::PageHandle> h = pool.Fetch(*p1);
    ASSERT_TRUE(h.ok());
    h->data()[0] = 'Z';
    h->MarkDirty();
  }
  { auto h = pool.Fetch(*p2); ASSERT_TRUE(h.ok()); }  // evicts p1
  std::vector<char> back(512, 0);
  ASSERT_TRUE(file->Read(*p1, back.data()).ok());
  EXPECT_EQ(back[0], 'Z');
  std::remove(path.c_str());
}

TEST(BufferPoolTest, AllFramesPinnedFails) {
  const std::string path = TempPath("bp3.vspg");
  StatusOr<PagedFile> file = PagedFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  StatusOr<PageId> p1 = file->Allocate();
  StatusOr<PageId> p2 = file->Allocate();
  cache::ShardedBufferPool pool(&*file, cache::PoolOptions{1, 1});
  StatusOr<cache::PageHandle> pinned = pool.Fetch(*p1);
  ASSERT_TRUE(pinned.ok());
  StatusOr<cache::PageHandle> second = pool.Fetch(*p2);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, ClockEvictsUnreferencedPage) {
  const std::string path = TempPath("bp4.vspg");
  StatusOr<PagedFile> file = PagedFile::Create(path, 512);
  ASSERT_TRUE(file.ok());
  std::vector<PageId> pages;
  for (int i = 0; i < 3; ++i) pages.push_back(*file->Allocate());
  cache::ShardedBufferPool pool(&*file, cache::PoolOptions{2, 1});
  { auto h = pool.Fetch(pages[0]); }
  { auto h = pool.Fetch(pages[1]); }
  { auto h = pool.Fetch(pages[0]); }  // page 0's reference bit is set
  { auto h = pool.Fetch(pages[2]); }  // sweep skips page 0, evicts page 1
  pool.ResetStats();
  { auto h = pool.Fetch(pages[0]); }
  EXPECT_EQ(pool.hits(), 1u);  // page 0 survived
  { auto h = pool.Fetch(pages[1]); }
  EXPECT_EQ(pool.misses(), 1u);  // page 1 was the victim
  std::remove(path.c_str());
}

// --- VectorSetStore -------------------------------------------------------

VectorSet RandomSet(Rng& rng, int max_vectors = 7, int dim = 6) {
  VectorSet s;
  const int n = 1 + static_cast<int>(rng.NextBounded(max_vectors));
  for (int i = 0; i < n; ++i) {
    FeatureVector v(dim);
    for (double& x : v) x = rng.Uniform(-1, 1);
    s.vectors.push_back(std::move(v));
  }
  return s;
}

TEST(VectorSetStoreTest, AppendGetRoundTrip) {
  const std::string path = TempPath("store1.vspg");
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 512, 4);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  Rng rng(7);
  std::vector<VectorSet> originals;
  for (int i = 0; i < 100; ++i) {
    originals.push_back(RandomSet(rng));
    ASSERT_TRUE(store->Append(i, originals.back()).ok());
  }
  EXPECT_EQ(store->size(), 100u);
  for (int i = 0; i < 100; ++i) {
    StatusOr<VectorSet> got = store->Get(i);
    ASSERT_TRUE(got.ok()) << i;
    ASSERT_EQ(got->size(), originals[i].size());
    for (size_t v = 0; v < got->size(); ++v) {
      EXPECT_EQ(got->vectors[v], originals[i].vectors[v]);
    }
  }
  std::remove(path.c_str());
}

TEST(VectorSetStoreTest, PersistsAcrossReopen) {
  const std::string path = TempPath("store2.vspg");
  Rng rng(9);
  std::vector<VectorSet> originals;
  {
    StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 512, 4);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 40; ++i) {
      originals.push_back(RandomSet(rng));
      ASSERT_TRUE(store->Append(i, originals.back()).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }
  StatusOr<VectorSetStore> reopened = VectorSetStore::Open(path, 4);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened->size(), 40u);
  for (int i = 0; i < 40; ++i) {
    StatusOr<VectorSet> got = reopened->Get(i);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), originals[i].size());
    for (size_t v = 0; v < got->size(); ++v) {
      EXPECT_EQ(got->vectors[v], originals[i].vectors[v]);
    }
  }
  std::remove(path.c_str());
}

TEST(VectorSetStoreTest, CacheMissesChargedHitsFree) {
  const std::string path = TempPath("store3.vspg");
  // Tiny pool: 2 frames; small pages so objects spread across pages.
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 512, 2);
  ASSERT_TRUE(store.ok());
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(store->Append(i, RandomSet(rng)).ok());
  }
  // Repeatedly fetch the same object: only the first access misses.
  IoStats stats;
  ASSERT_TRUE(store->Get(5, &stats).ok());
  const size_t first = stats.page_accesses();
  EXPECT_GE(first, 1u);
  ASSERT_TRUE(store->Get(5, &stats).ok());
  EXPECT_EQ(stats.page_accesses(), first);  // hit: no page charged
  EXPECT_GT(stats.bytes_read(), 0u);
  std::remove(path.c_str());
}

TEST(VectorSetStoreTest, RejectsOversizedRecordAndBadIds) {
  const std::string path = TempPath("store4.vspg");
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 256, 2);
  ASSERT_TRUE(store.ok());
  VectorSet huge;
  for (int i = 0; i < 20; ++i) {
    huge.vectors.push_back(FeatureVector(6, 1.0));
  }
  EXPECT_FALSE(store->Append(0, huge).ok());  // 20*48+10 > 256-2
  EXPECT_FALSE(store->Get(0).ok());
  EXPECT_FALSE(store->Get(-1).ok());
  VectorSet small;
  small.vectors.push_back(FeatureVector(6, 1.0));
  EXPECT_FALSE(store->Append(-1, small).ok());
  ASSERT_TRUE(store->Append(1, small).ok());
  EXPECT_FALSE(store->Append(1, small).ok());  // already stored
  EXPECT_FALSE(store->Get(0).ok());            // not stored (yet)
  EXPECT_FALSE(store->Flush().ok());           // id 0 is missing
  ASSERT_TRUE(store->Append(0, small).ok());
  EXPECT_TRUE(store->Flush().ok());
  std::remove(path.c_str());
}

TEST(VectorSetStoreTest, EmptySetRoundTrips) {
  const std::string path = TempPath("store5.vspg");
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 512, 2);
  ASSERT_TRUE(store.ok());
  VectorSet empty;
  ASSERT_TRUE(store->Append(0, empty).ok());
  StatusOr<VectorSet> got = store->Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
  std::remove(path.c_str());
}

TEST(VectorSetStoreTest, RecordsInAnyOrderStayAddressedById) {
  const std::string path = TempPath("store6.vspg");
  Rng rng(13);
  std::vector<VectorSet> originals;
  for (int i = 0; i < 50; ++i) originals.push_back(RandomSet(rng));
  // A permutation of the ids: records are laid out in this order.
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) order.push_back((i * 17) % 50);
  {
    StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 512, 4);
    ASSERT_TRUE(store.ok());
    for (int id : order) ASSERT_TRUE(store->Append(id, originals[id]).ok());
    EXPECT_EQ(store->page_order(), order);
    ASSERT_TRUE(store->Flush().ok());
  }
  StatusOr<VectorSetStore> reopened = VectorSetStore::Open(path, 4);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->page_order(), order);
  ASSERT_EQ(reopened->size(), 50u);
  for (int id = 0; id < 50; ++id) {
    StatusOr<VectorSet> got = reopened->Get(id);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->vectors, originals[id].vectors) << id;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsim

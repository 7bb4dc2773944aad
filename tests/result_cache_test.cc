#include "vsim/service/result_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vsim/data/dataset.h"

namespace vsim {
namespace {

ResultCacheKey Key(uint64_t digest, int k = 10) {
  ResultCacheKey key;
  key.digest = digest;
  key.k = k;
  return key;
}

CachedResult Value(int id) {
  CachedResult value;
  value.neighbors.push_back({id, static_cast<double>(id)});
  return value;
}

TEST(ResultCacheTest, LookupMissThenHit) {
  ResultCache cache(1 << 20, 4);
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(Key(1), &out));
  cache.Insert(Key(1), Value(7));
  ASSERT_TRUE(cache.Lookup(Key(1), &out));
  ASSERT_EQ(out.neighbors.size(), 1u);
  EXPECT_EQ(out.neighbors[0].id, 7);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCacheTest, KeyFieldsDisambiguate) {
  ResultCache cache(1 << 20, 1);
  cache.Insert(Key(1, 10), Value(1));
  CachedResult out;
  // Same digest, different k: distinct entry.
  EXPECT_FALSE(cache.Lookup(Key(1, 20), &out));
  ResultCacheKey range_key = Key(1, 0);
  range_key.eps = 0.5;
  EXPECT_FALSE(cache.Lookup(range_key, &out));
  ResultCacheKey strat_key = Key(1, 10);
  strat_key.strategy = 2;
  EXPECT_FALSE(cache.Lookup(strat_key, &out));
  EXPECT_TRUE(cache.Lookup(Key(1, 10), &out));
}

// Generation is part of the key: an entry inserted against snapshot
// generation g must never satisfy a lookup from generation g' != g.
// This is the mechanism that makes a snapshot swap a logical cache
// flush (see SnapshotSwapTest for the end-to-end regression).
TEST(ResultCacheTest, GenerationDisambiguates) {
  ResultCache cache(1 << 20, 1);
  ResultCacheKey gen0 = Key(1);
  gen0.generation = 0;
  cache.Insert(gen0, Value(7));
  ResultCacheKey gen1 = gen0;
  gen1.generation = 1;
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(gen1, &out));
  cache.Insert(gen1, Value(8));
  ASSERT_TRUE(cache.Lookup(gen0, &out));
  EXPECT_EQ(out.neighbors[0].id, 7);
  ASSERT_TRUE(cache.Lookup(gen1, &out));
  EXPECT_EQ(out.neighbors[0].id, 8);
}

TEST(ResultCacheTest, DeterministicLruEviction) {
  // Single shard so the LRU order is global and exact. Each entry is
  // ~sizeof(CachedResult) + 1 Neighbor; budget for about 4 of them.
  const size_t entry_bytes = Value(0).ApproxBytes();
  ResultCache cache(4 * entry_bytes, 1);
  for (int i = 0; i < 4; ++i) cache.Insert(Key(i), Value(i));
  EXPECT_EQ(cache.entries(), 4u);

  // Touch 0 so 1 becomes the LRU victim.
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(Key(0), &out));
  cache.Insert(Key(4), Value(4));
  EXPECT_FALSE(cache.Lookup(Key(1), &out));  // evicted
  EXPECT_TRUE(cache.Lookup(Key(0), &out));   // kept (recently used)
  EXPECT_TRUE(cache.Lookup(Key(4), &out));   // newest
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, ReinsertRefreshesValueWithoutDuplicates) {
  ResultCache cache(1 << 20, 1);
  cache.Insert(Key(1), Value(1));
  cache.Insert(Key(1), Value(2));
  EXPECT_EQ(cache.entries(), 1u);
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(Key(1), &out));
  EXPECT_EQ(out.neighbors[0].id, 2);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(Key(1), Value(1));
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(Key(1), &out));
  EXPECT_EQ(cache.entries(), 0u);
  // A disabled cache records no traffic either.
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ResultCacheTest, OversizedValueIsNotCached) {
  ResultCache cache(256, 1);
  CachedResult big;
  big.neighbors.resize(10000);
  cache.Insert(Key(1), big);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(ResultCacheTest, ClearEmptiesAllShards) {
  ResultCache cache(1 << 20, 8);
  for (int i = 0; i < 100; ++i) cache.Insert(Key(i), Value(i));
  EXPECT_GT(cache.entries(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.ApproxBytes(), 0u);
}

TEST(ResultCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  ResultCache cache(1 << 20, 5);
  EXPECT_EQ(cache.num_shards(), 8);
}

TEST(ResultCacheTest, ConcurrentMixedTraffic) {
  ResultCache cache(1 << 18, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t]() {
      for (int i = 0; i < 2000; ++i) {
        const uint64_t digest = static_cast<uint64_t>((t * 37 + i) % 256);
        CachedResult out;
        if (!cache.Lookup(Key(digest), &out)) {
          cache.Insert(Key(digest), Value(static_cast<int>(digest)));
        } else {
          ASSERT_EQ(out.neighbors[0].id, static_cast<int>(digest));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 2000u);
}

TEST(DigestTest, DistinguishesQueryObjects) {
  ObjectRepr a;
  a.vector_set.vectors = {{1.0, 2.0}, {3.0, 4.0}};
  a.centroid = {2.0, 3.0};
  ObjectRepr b = a;
  EXPECT_EQ(DigestQueryObject(a), DigestQueryObject(b));
  b.vector_set.vectors[1][1] = 4.0000001;
  EXPECT_NE(DigestQueryObject(a), DigestQueryObject(b));
  // Moving a value across the vector boundary must change the digest
  // (lengths are folded in, not just the flat payload).
  ObjectRepr c;
  c.vector_set.vectors = {{1.0, 2.0, 3.0}, {4.0}};
  c.centroid = {2.0, 3.0};
  EXPECT_NE(DigestQueryObject(a), DigestQueryObject(c));
}

// A stored object's shape: a 7-vector set of 6-d vectors, its 7-d
// extended centroid and a 42-d cover vector, every value distinct.
ObjectRepr StoredShapeObject() {
  ObjectRepr object;
  double value = 0.0;
  for (int v = 0; v < 7; ++v) {
    FeatureVector vector(6);
    for (double& d : vector) d = (value += 0.37);
    object.vector_set.vectors.push_back(std::move(vector));
  }
  object.centroid.resize(7);
  for (double& d : object.centroid) d = (value += 0.37);
  object.cover_vector.resize(42);
  for (double& d : object.cover_vector) d = (value += 0.37);
  return object;
}

// Every value the digest reads, in its order.
std::vector<double*> AllValues(ObjectRepr* object) {
  std::vector<double*> values;
  for (FeatureVector& v : object->vector_set.vectors) {
    for (double& d : v) values.push_back(&d);
  }
  for (double& d : object->centroid) values.push_back(&d);
  for (double& d : object->cover_vector) values.push_back(&d);
  return values;
}

TEST(DigestTest, OneUlpChangeToAnySingleValueChangesTheDigest) {
  const ObjectRepr base = StoredShapeObject();
  const uint64_t digest = DigestQueryObject(base);
  ObjectRepr copy = base;
  EXPECT_EQ(DigestQueryObject(copy), digest);
  const size_t count = AllValues(&copy).size();
  ASSERT_EQ(count, 7u * 6 + 7 + 42);
  for (size_t i = 0; i < count; ++i) {
    for (const double toward : {-1e300, 1e300}) {
      ObjectRepr changed = base;
      double* value = AllValues(&changed)[i];
      *value = std::nextafter(*value, toward);
      EXPECT_NE(DigestQueryObject(changed), digest)
          << "value " << i << " toward " << toward;
    }
  }
}

TEST(DigestTest, SwappingTwoVectorsChangesTheDigest) {
  const ObjectRepr base = StoredShapeObject();
  const uint64_t digest = DigestQueryObject(base);
  for (size_t i = 0; i < base.vector_set.size(); ++i) {
    for (size_t j = i + 1; j < base.vector_set.size(); ++j) {
      ObjectRepr swapped = base;
      std::swap(swapped.vector_set.vectors[i], swapped.vector_set.vectors[j]);
      EXPECT_NE(DigestQueryObject(swapped), digest) << i << " <-> " << j;
    }
  }
}

// The same values in the same order, with one moved across the boundary
// between two fields -- two vectors, the last vector and the centroid,
// the centroid and the cover vector -- in either direction: the
// lengths folded into the digest tell them apart.
TEST(DigestTest, MovingAValueAcrossAFieldBoundaryChangesTheDigest) {
  const ObjectRepr base = StoredShapeObject();
  const uint64_t digest = DigestQueryObject(base);
  auto fields = [](ObjectRepr* object) {
    std::vector<FeatureVector*> out;
    for (FeatureVector& v : object->vector_set.vectors) out.push_back(&v);
    out.push_back(&object->centroid);
    out.push_back(&object->cover_vector);
    return out;
  };
  ObjectRepr probe = base;
  const size_t boundaries = fields(&probe).size() - 1;
  for (size_t b = 0; b < boundaries; ++b) {
    ObjectRepr forward = base;
    FeatureVector& left = *fields(&forward)[b];
    FeatureVector& right = *fields(&forward)[b + 1];
    right.insert(right.begin(), left.back());
    left.pop_back();
    EXPECT_NE(DigestQueryObject(forward), digest) << "forward " << b;

    ObjectRepr backward = base;
    FeatureVector& first = *fields(&backward)[b];
    FeatureVector& second = *fields(&backward)[b + 1];
    first.push_back(second.front());
    second.erase(second.begin());
    EXPECT_NE(DigestQueryObject(backward), digest) << "backward " << b;
  }
}

// Over a generated corpus (AircraftLike, 600 parts, many of them sharing
// a vector set): objects whose digested fields are equal share a digest,
// and no two that differ do.
TEST(DigestTest, DistinctObjectsOfAGeneratedCorpusHaveDistinctDigests) {
  ExtractionOptions opt;
  opt.extract_histograms = false;
  StatusOr<CadDatabase> db =
      CadDatabase::FromDataset(MakeAircraftDataset(600, 7), opt, 2);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto same = [](const ObjectRepr& a, const ObjectRepr& b) {
    return a.vector_set.vectors == b.vector_set.vectors &&
           a.centroid == b.centroid && a.cover_vector == b.cover_vector;
  };
  std::unordered_map<uint64_t, int> first_with_digest;
  size_t distinct = 0;
  for (int id = 0; id < static_cast<int>(db->size()); ++id) {
    const ObjectRepr& object = db->object(id);
    const auto [it, inserted] =
        first_with_digest.emplace(DigestQueryObject(object), id);
    if (inserted) {
      ++distinct;
    } else {
      EXPECT_TRUE(same(db->object(it->second), object))
          << "objects " << it->second << " and " << id
          << " differ but share a digest";
    }
  }
  // Every object with distinct content got its own digest.
  size_t distinct_content = 0;
  for (int id = 0; id < static_cast<int>(db->size()); ++id) {
    bool seen = false;
    for (int earlier = 0; earlier < id && !seen; ++earlier) {
      seen = same(db->object(earlier), db->object(id));
    }
    if (!seen) ++distinct_content;
  }
  EXPECT_EQ(distinct, distinct_content);
  EXPECT_GT(distinct, 100u);
}

}  // namespace
}  // namespace vsim

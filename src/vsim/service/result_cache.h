// Sharded LRU cache for refined query results. Refinement cost is
// dominated by the O(k^3) Hungarian matching per candidate, so repeated
// and near-duplicate queries (the common case in interactive CAD
// sessions: the same part re-queried with the same k) are served from
// the cache without touching the engine at all.
//
// Keys combine a 64-bit digest of the query's feature payload with the
// full query shape (kind, strategy, k / eps, invariance flags) AND the
// database snapshot's generation; two requests collide only if every
// field including the digest matches. Tagging keys with the generation
// is what makes snapshot swaps safe without a stop-the-world flush: a
// result computed against generation g can only ever be replayed to a
// request that also executed on generation g, so entries from a
// displaced snapshot simply stop matching and age out via LRU. (Before
// generation tagging, rebuilding the database behind the service
// silently served stale hits -- see SnapshotSwapTest.)
//
// Thread-safety: all public methods are safe to call concurrently.
// Shards are independent mutex + LRU-list + hash-map triples, so
// concurrent lookups on different shards never contend; statistics
// counters are relaxed atomics.
#ifndef VSIM_SERVICE_RESULT_CACHE_H_
#define VSIM_SERVICE_RESULT_CACHE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vsim/common/thread_annotations.h"
#include "vsim/core/similarity.h"
#include "vsim/index/xtree.h"

namespace vsim {

// Word-wise hashing for cache keys: one multiply-rotate step per 64-bit
// word (FxHash's step: a bijection of the running hash for each word,
// so changing any one word changes the result) and MurmurHash3's
// fmix64 avalanche at the end, so every output bit -- the hash map's
// low bits and the shard's high bits alike -- depends on every input.
inline uint64_t HashWord(uint64_t h, uint64_t word) {
  return (std::rotl(h, 5) ^ word) * 0x517cc1b727220a95ull;
}

inline uint64_t HashFinish(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

// Digest of everything about a query object that the engine's distance
// computations can observe (vector set, centroid, cover vector): every
// value's bits in order, with each list's length before it.
uint64_t DigestQueryObject(const ObjectRepr& query);

struct ResultCacheKey {
  uint64_t digest = 0;
  uint64_t generation = 0;  // DbSnapshot generation the result came from
  uint8_t kind = 0;        // QueryKind underlying value
  uint8_t strategy = 0;    // QueryStrategy underlying value
  uint8_t invariance = 0;  // 0 none, 1 rotations, 2 rotations+reflections
  int32_t k = 0;           // k-NN parameter, 0 for range queries
  double eps = 0.0;        // range parameter, 0 for k-NN

  bool operator==(const ResultCacheKey&) const = default;
};

struct ResultCacheKeyHash {
  size_t operator()(const ResultCacheKey& key) const {
    const uint64_t shape = (static_cast<uint64_t>(key.kind) << 48) |
                           (static_cast<uint64_t>(key.strategy) << 40) |
                           (static_cast<uint64_t>(key.invariance) << 32) |
                           static_cast<uint32_t>(key.k);
    uint64_t h = HashWord(key.digest, key.generation);
    h = HashWord(h, shape);
    h = HashWord(h, std::bit_cast<uint64_t>(key.eps));
    return static_cast<size_t>(HashFinish(h));
  }
};

// Cached payload: neighbors for k-NN kinds, ids for range kinds.
struct CachedResult {
  std::vector<Neighbor> neighbors;
  std::vector<int> ids;

  size_t ApproxBytes() const {
    return sizeof(CachedResult) + neighbors.capacity() * sizeof(Neighbor) +
           ids.capacity() * sizeof(int);
  }
};

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class ResultCache {
 public:
  // capacity_bytes = 0 disables the cache (Lookup always misses,
  // Insert is a no-op). num_shards is rounded up to a power of two.
  explicit ResultCache(size_t capacity_bytes, int num_shards = 16);

  bool enabled() const { return capacity_bytes_ > 0; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Copies the cached value into *out and returns true on a hit.
  // Takes (only) the target shard's mutex. A hit always counts; a miss
  // counts unless `count_miss` is false, for a first look whose miss
  // the caller follows with a counted lookup (one request, one count).
  bool Lookup(const ResultCacheKey& key, CachedResult* out,
              bool count_miss = true);

  // Inserts (or refreshes) an entry, evicting least-recently-used
  // entries of the target shard until it fits its byte budget. Values
  // larger than a whole shard are not cached.
  void Insert(const ResultCacheKey& key, CachedResult value);

  void Clear();

  size_t ApproxBytes() const;
  size_t entries() const;
  ResultCacheStats stats() const;

 private:
  struct Shard {
    Mutex mu{"service.result_cache.shard"};
    // Most-recently-used at the front.
    std::list<std::pair<ResultCacheKey, CachedResult>> lru GUARDED_BY(mu);
    std::unordered_map<ResultCacheKey, decltype(lru)::iterator,
                       ResultCacheKeyHash>
        map GUARDED_BY(mu);
    size_t bytes GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(const ResultCacheKey& key) {
    const size_t h = ResultCacheKeyHash()(key);
    // The low bits feed the hash map's bucket choice; use high bits
    // for the shard so the two are decorrelated.
    return *shards_[(h >> 48) & (shards_.size() - 1)];
  }

  // capacity_bytes_/shard_capacity_/shards_ (the vector itself, not the
  // shard contents) are immutable after construction; the statistics
  // counters are relaxed atomics deliberately outside the shard locks
  // -- they are monotone telemetry, and stats() may observe a count a
  // step ahead of the shard state it races with.
  size_t capacity_bytes_ = 0;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace vsim

#endif  // VSIM_SERVICE_RESULT_CACHE_H_

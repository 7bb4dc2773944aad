#include "vsim/service/result_cache.h"

namespace vsim {

namespace {

uint64_t DigestDoubles(const std::vector<double>& v, uint64_t h) {
  h = HashWord(h, v.size());
  for (const double d : v) h = HashWord(h, std::bit_cast<uint64_t>(d));
  return h;
}

}  // namespace

uint64_t DigestQueryObject(const ObjectRepr& query) {
  uint64_t h = HashWord(0, query.vector_set.size());
  for (const FeatureVector& v : query.vector_set.vectors) {
    h = DigestDoubles(v, h);
  }
  h = DigestDoubles(query.centroid, h);
  h = DigestDoubles(query.cover_vector, h);
  return HashFinish(h);
}

ResultCache::ResultCache(size_t capacity_bytes, int num_shards)
    : capacity_bytes_(capacity_bytes) {
  if (num_shards < 1) num_shards = 1;
  size_t shards = 1;
  while (shards < static_cast<size_t>(num_shards)) shards <<= 1;
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = capacity_bytes_ / shards;
  if (capacity_bytes_ > 0 && shard_capacity_ == 0) shard_capacity_ = 1;
}

bool ResultCache::Lookup(const ResultCacheKey& key, CachedResult* out,
                         bool count_miss) {
  if (!enabled()) return false;
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    if (count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  if (out != nullptr) *out = it->second->second;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResultCache::Insert(const ResultCacheKey& key, CachedResult value) {
  if (!enabled()) return;
  const size_t value_bytes = value.ApproxBytes();
  if (value_bytes > shard_capacity_) return;  // would evict a whole shard
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->second.ApproxBytes();
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second->second = std::move(value);
    shard.bytes += value_bytes;
  } else {
    shard.lru.emplace_front(key, std::move(value));
    shard.map.emplace(key, shard.lru.begin());
    shard.bytes += value_bytes;
    insertions_.fetch_add(1, std::memory_order_relaxed);
  }
  while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
    auto& victim = shard.lru.back();
    shard.bytes -= victim.second.ApproxBytes();
    shard.map.erase(victim.first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
}

size_t ResultCache::ApproxBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->bytes;
  }
  return total;
}

size_t ResultCache::entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    total += shard->lru.size();
  }
  return total;
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace vsim

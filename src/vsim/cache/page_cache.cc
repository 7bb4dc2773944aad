#include "vsim/cache/page_cache.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "vsim/common/stopwatch.h"

namespace vsim::cache {

// -- PageHandle -------------------------------------------------------

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    if (frame_ != nullptr) {
      frame_->pin_count.fetch_sub(1, std::memory_order_release);
    }
    frame_ = std::exchange(other.frame_, nullptr);
    page_ = std::exchange(other.page_, 0);
  }
  return *this;
}

PageHandle::~PageHandle() {
  if (frame_ != nullptr) {
    // Release ordering publishes the holder's reads/writes of the frame
    // data to the evictor, which observes pin_count == 0 with acquire
    // semantics under the shard's exclusive lock.
    frame_->pin_count.fetch_sub(1, std::memory_order_release);
  }
}

char* PageHandle::data() {
  assert(frame_ != nullptr);
  return frame_->data.data();
}

const char* PageHandle::data() const {
  assert(frame_ != nullptr);
  return frame_->data.data();
}

void PageHandle::MarkDirty() {
  assert(frame_ != nullptr);
  frame_->dirty.store(true, std::memory_order_release);
}

PageTier PageHandle::tier() const {
  assert(frame_ != nullptr);
  return static_cast<PageTier>(frame_->tier.load(std::memory_order_relaxed));
}

void PageHandle::SetTier(PageTier tier) {
  assert(frame_ != nullptr);
  frame_->tier.store(static_cast<uint8_t>(tier), std::memory_order_relaxed);
}

// -- ShardedBufferPool ------------------------------------------------

namespace {

size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

ShardedBufferPool::ShardedBufferPool(PagedFile* file, PoolOptions options)
    : file_(file) {
  capacity_ = options.capacity == 0 ? 1 : options.capacity;
  size_t want = options.shards == 0 ? std::min<size_t>(8, capacity_)
                                    : options.shards;
  size_t nshards = FloorPow2(std::min(std::max<size_t>(want, 1), capacity_));

  shards_.reserve(nshards);
  // Distribute frames round-robin so every shard gets at least one.
  size_t base = capacity_ / nshards;
  size_t extra = capacity_ % nshards;
  for (size_t s = 0; s < nshards; ++s) {
    auto shard = std::make_unique<Shard>();
    size_t frames = base + (s < extra ? 1 : 0);
    shard->frames = std::vector<Frame>(frames);
    shard->free_frames.reserve(frames);
    // Hand out free frames in index order (pop from the back).
    for (size_t i = frames; i-- > 0;) {
      shard->frames[i].data.resize(file_->page_size());
      shard->free_frames.push_back(i);
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedBufferPool::~ShardedBufferPool() {
  // Best effort, mirroring PagedFile's close-time header write. Errors
  // surface on the explicit FlushAll path, not in a destructor.
  (void)FlushAll();
}

ShardedBufferPool::Shard& ShardedBufferPool::ShardOf(PageId page) {
  // Shard count is a power of two; a multiplicative hash spreads the
  // sequential PageIds PagedFile allocates across shards.
  uint64_t h = page * 0x9e3779b97f4a7c15ULL;
  return *shards_[(h >> 32) & (shards_.size() - 1)];
}

PageHandle ShardedBufferPool::PinResident(Frame& frame, PageId page) {
  frame.pin_count.fetch_add(1, std::memory_order_acquire);
  bool hot = static_cast<PageTier>(frame.tier.load(
                 std::memory_order_relaxed)) == PageTier::kHot;
  if (hot) {
    counters_.hot_hits.fetch_add(1, std::memory_order_relaxed);
    frame.referenced.store(true, std::memory_order_relaxed);
  } else {
    counters_.cold_hits.fetch_add(1, std::memory_order_relaxed);
    // A repeat hit on a cold page proves re-use: the false -> true
    // clock-bit flip promotes the page into the hot tier, where the
    // sweep spares it while any cold victim exists. This is the
    // hot-key-retention half of the tiering policy -- index pages are
    // retiered explicitly (Retier/SetTier); data pages earn hotness.
    if (!frame.referenced.exchange(true, std::memory_order_relaxed)) {
      frame.tier.store(static_cast<uint8_t>(PageTier::kHot),
                       std::memory_order_relaxed);
      counters_.promotions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return PageHandle(&frame, page);
}

StatusOr<size_t> ShardedBufferPool::GrabFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    size_t idx = shard.free_frames.back();
    shard.free_frames.pop_back();
    return idx;
  }

  const size_t n = shard.frames.size();
  // Two passes: cold-only first, then (when the cold tier had no
  // unpinned candidate at all) a hot sweep. Each pass is a CLOCK
  // second-chance scan: a set reference bit buys one more lap.
  for (int pass = 0; pass < 2; ++pass) {
    const bool cold_only = pass == 0;
    // 2N steps: worst case every frame's reference bit must be cleared
    // once before the second lap finds a victim.
    for (size_t step = 0; step < 2 * n; ++step) {
      Frame& frame = shard.frames[shard.clock_hand];
      size_t idx = shard.clock_hand;
      shard.clock_hand = (shard.clock_hand + 1) % n;

      if (frame.pin_count.load(std::memory_order_acquire) != 0) continue;
      bool hot = static_cast<PageTier>(frame.tier.load(
                     std::memory_order_relaxed)) == PageTier::kHot;
      if (cold_only && hot) continue;
      if (frame.referenced.exchange(false, std::memory_order_relaxed)) {
        continue;  // second chance
      }

      // Victim. pin_count can no longer rise: new pins require at
      // least the shared lock, excluded by our exclusive hold.
      if (frame.dirty.load(std::memory_order_acquire)) {
        VSIM_RETURN_NOT_OK(
            file_->Write(frame.page, frame.data.data()));
        frame.dirty.store(false, std::memory_order_relaxed);
        counters_.writebacks.fetch_add(1, std::memory_order_relaxed);
      }
      shard.table.erase(frame.page);
      frame.page = 0;
      if (hot) {
        counters_.hot_evictions.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters_.cold_evictions.fetch_add(1, std::memory_order_relaxed);
      }
      return idx;
    }
  }
  return Status(StatusCode::kFailedPrecondition,
                "buffer pool shard exhausted: all frames pinned");
}

StatusOr<PageHandle> ShardedBufferPool::Fetch(PageId page, PageTier tier,
                                              bool* miss) {
  if (miss != nullptr) *miss = false;
  Shard& shard = ShardOf(page);

  // Fast path: page-table hit under the shared (reader) lock.
  {
    ReaderMutexLock lock(&shard.mu);
    auto it = shard.table.find(page);
    if (it != shard.table.end()) {
      return PinResident(shard.frames[it->second], page);
    }
  }

  // Miss path: exclusive lock, re-check (another thread may have loaded
  // the page between our unlock and relock), then evict + read. When
  // every frame of the shard is transiently pinned by concurrent
  // readers, wait outside the lock and retry: pins on the serving path
  // are held only for the duration of one record copy, but the holder
  // may be descheduled for a long stretch on a loaded host, so the wait
  // is bounded by time (yields first, then sleeps with exponential
  // backoff), not by a retry count. Callers hold at most one pin at a
  // time (VectorSetStore::GetFlat, DiskXTree's FetchNode), so a waiting
  // thread holds no pins and cannot deadlock the shard it waits on.
  constexpr double kPinWaitLimitSeconds = 1.0;
  constexpr int kPinWaitYields = 64;
  constexpr auto kPinWaitMaxSleep = std::chrono::milliseconds(1);
  const Stopwatch waited;
  auto sleep = std::chrono::microseconds(10);
  for (int attempt = 0;; ++attempt) {
    {
      WriterMutexLock lock(&shard.mu);
      auto it = shard.table.find(page);
      if (it != shard.table.end()) {
        return PinResident(shard.frames[it->second], page);
      }

      StatusOr<size_t> grabbed = GrabFrame(shard);
      if (!grabbed.ok() && grabbed.status().code() ==
                               StatusCode::kFailedPrecondition &&
          waited.ElapsedSeconds() < kPinWaitLimitSeconds) {
        // Fall through to the wait below, outside the lock.
      } else {
        VSIM_RETURN_NOT_OK(grabbed.status());
        size_t idx = *grabbed;
        Frame& frame = shard.frames[idx];
        // The file read runs under the exclusive shard lock: same-shard
        // hits stall behind it, other shards proceed (see header
        // trade-off note).
        Status read = file_->Read(page, frame.data.data());
        if (!read.ok()) {
          shard.free_frames.push_back(idx);
          return read;
        }
        frame.page = page;
        frame.dirty.store(false, std::memory_order_relaxed);
        frame.referenced.store(false, std::memory_order_relaxed);
        frame.tier.store(static_cast<uint8_t>(tier),
                         std::memory_order_relaxed);
        frame.pin_count.store(1, std::memory_order_relaxed);
        shard.table.emplace(page, idx);
        counters_.misses.fetch_add(1, std::memory_order_relaxed);
        if (miss != nullptr) *miss = true;
        return PageHandle(&frame, page);
      }
    }
    if (attempt < kPinWaitYields) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(sleep);
      sleep = std::min<std::chrono::microseconds>(2 * sleep, kPinWaitMaxSleep);
    }
  }
}

StatusOr<PageHandle> ShardedBufferPool::Allocate(PageTier tier) {
  // PagedFile::Allocate is internally synchronized; the page id it
  // returns is not yet in any shard's table, so no other thread can
  // race us to bind it.
  VSIM_ASSIGN_OR_RETURN(PageId page, file_->Allocate());
  Shard& shard = ShardOf(page);

  WriterMutexLock lock(&shard.mu);
  VSIM_ASSIGN_OR_RETURN(size_t idx, GrabFrame(shard));
  Frame& frame = shard.frames[idx];
  std::memset(frame.data.data(), 0, frame.data.size());
  frame.page = page;
  frame.dirty.store(true, std::memory_order_relaxed);
  frame.referenced.store(false, std::memory_order_relaxed);
  frame.tier.store(static_cast<uint8_t>(tier), std::memory_order_relaxed);
  frame.pin_count.store(1, std::memory_order_relaxed);
  shard.table.emplace(page, idx);
  return PageHandle(&frame, page);
}

void ShardedBufferPool::Retier(PageId page, PageTier tier) {
  Shard& shard = ShardOf(page);
  ReaderMutexLock lock(&shard.mu);
  auto it = shard.table.find(page);
  if (it == shard.table.end()) return;
  shard.frames[it->second].tier.store(static_cast<uint8_t>(tier),
                                      std::memory_order_relaxed);
}

Status ShardedBufferPool::FlushAll() {
  for (auto& shard : shards_) {
    WriterMutexLock lock(&shard->mu);
    for (Frame& frame : shard->frames) {
      if (frame.page == 0) continue;
      if (!frame.dirty.load(std::memory_order_acquire)) continue;
      VSIM_RETURN_NOT_OK(file_->Write(frame.page, frame.data.data()));
      frame.dirty.store(false, std::memory_order_relaxed);
      counters_.writebacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return file_->Sync();
}

PoolStatsSnapshot ShardedBufferPool::Stats() const {
  PoolStatsSnapshot snap;
  snap.hot_hits = counters_.hot_hits.load(std::memory_order_relaxed);
  snap.cold_hits = counters_.cold_hits.load(std::memory_order_relaxed);
  snap.misses = counters_.misses.load(std::memory_order_relaxed);
  snap.hot_evictions =
      counters_.hot_evictions.load(std::memory_order_relaxed);
  snap.cold_evictions =
      counters_.cold_evictions.load(std::memory_order_relaxed);
  snap.promotions = counters_.promotions.load(std::memory_order_relaxed);
  snap.writebacks = counters_.writebacks.load(std::memory_order_relaxed);
  snap.capacity_frames = capacity_;
  snap.shard_count = shards_.size();
  for (const auto& shard : shards_) {
    ReaderMutexLock lock(&shard->mu);
    for (const Frame& frame : shard->frames) {
      if (frame.page == 0) continue;
      bool hot = static_cast<PageTier>(frame.tier.load(
                     std::memory_order_relaxed)) == PageTier::kHot;
      (hot ? snap.resident_hot : snap.resident_cold) += 1;
      if (frame.pin_count.load(std::memory_order_relaxed) > 0) {
        snap.pinned_frames += 1;
      }
    }
  }
  return snap;
}

void ShardedBufferPool::ResetStats() {
  counters_.hot_hits.store(0, std::memory_order_relaxed);
  counters_.cold_hits.store(0, std::memory_order_relaxed);
  counters_.misses.store(0, std::memory_order_relaxed);
  counters_.hot_evictions.store(0, std::memory_order_relaxed);
  counters_.cold_evictions.store(0, std::memory_order_relaxed);
  counters_.promotions.store(0, std::memory_order_relaxed);
  counters_.writebacks.store(0, std::memory_order_relaxed);
}

}  // namespace vsim::cache

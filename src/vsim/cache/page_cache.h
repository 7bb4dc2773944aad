// Concurrent sharded buffer pool with hot/cold page tiering: the
// storage layer's replacement for the old single-thread LRU BufferPool,
// built so the disk-backed query path (QueryEngine::AttachStore) can be
// served by many worker threads at once.
//
// Structure (latch per partition):
//
//   - PageIds hash onto N shards. Each shard owns a fixed slice of the
//     frame budget, a page table (PageId -> frame), and one SharedMutex.
//     Threads touching different shards never contend.
//   - The page-table HIT path takes only the shard's *shared* lock: the
//     table cannot change under a reader, pinning is an atomic
//     increment, and the clock reference bit is an atomic store -- so
//     any number of hits on one shard proceed in parallel.
//   - Misses, evictions and allocations take the shard's exclusive
//     lock. Page I/O runs under it; sharding bounds the collateral
//     stall to one partition (the classic latch-per-partition
//     trade-off, chosen over per-frame I/O latches for provability).
//
// Tiering (hot/cold, in the style of RAM-hot / disk-cold key-value
// splits): every resident frame is tagged kHot or kCold. Every page
// enters the cold tier; a cold page that takes a repeat hit while
// resident has proven re-use and is *promoted* into the hot tier
// (counted in `promotions`): retention is earned by access, exactly
// the hot-key split's admission rule. Eviction runs a CLOCK sweep over
// *cold* frames first and touches hot frames only when no unpinned
// cold frame exists, so the re-used working set stays resident while
// pages read once churn underneath.
//
// Pin semantics: Fetch/Allocate return a pin-counted PageHandle that is
// safe to hold, move and destroy on any thread (unpin is one atomic
// decrement, no lock). A pinned frame is never evicted; when every
// frame of the target shard is pinned, Fetch waits and retries
// (momentary pin spikes are the common case under concurrent serving),
// failing with kFailedPrecondition only when the shard stays saturated
// by held pins for a fixed time bound (one second).
//
// Thread-safety: all public methods of ShardedBufferPool and PageHandle
// are safe to call concurrently from any thread. The one carve-out is
// writes through a handle's data(): the caller must not race FlushAll
// with its own writes to a pinned dirty page (the build phase is
// single-writer by construction; serving is read-only).
#ifndef VSIM_CACHE_PAGE_CACHE_H_
#define VSIM_CACHE_PAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/common/thread_annotations.h"
#include "vsim/storage/paged_file.h"

namespace vsim::cache {

// Retention class of a resident page (see tiering notes above).
enum class PageTier : uint8_t { kCold = 0, kHot = 1 };

struct PoolOptions {
  // Total frames across all shards (>= 1; each frame holds one page).
  size_t capacity = 64;
  // Number of latch partitions; 0 picks min(8, capacity), and any value
  // is clamped to [1, capacity] and rounded down to a power of two.
  size_t shards = 0;
};

// Scrape-time view of the pool's counters and occupancy. Counters are
// monotone (relaxed atomics underneath: totals converge, a snapshot may
// lag in-flight operations by design); occupancy is sampled per shard
// under its shared lock.
struct PoolStatsSnapshot {
  uint64_t hot_hits = 0;        // page-table hits on hot frames
  uint64_t cold_hits = 0;       // page-table hits on cold frames
  uint64_t misses = 0;          // fetches that read the file
  uint64_t hot_evictions = 0;   // hot frames reclaimed (cold tier empty)
  uint64_t cold_evictions = 0;  // cold frames reclaimed
  uint64_t promotions = 0;      // cold pages promoted to the hot tier
                                // by a repeat hit while resident
  uint64_t writebacks = 0;      // dirty pages written on eviction/flush
  uint64_t resident_hot = 0;    // occupancy at snapshot time
  uint64_t resident_cold = 0;
  uint64_t pinned_frames = 0;
  uint64_t capacity_frames = 0;
  uint64_t shard_count = 0;

  uint64_t hits() const { return hot_hits + cold_hits; }
  uint64_t evictions() const { return hot_evictions + cold_evictions; }
};

class ShardedBufferPool;

namespace internal {

// One page-sized buffer plus its control word(s). Frames live in a
// per-shard vector sized at construction: addresses are stable, so a
// PageHandle can hold a bare Frame* across its lifetime.
struct Frame {
  // Which page the frame holds (0 = unbound). Bound/unbound only under
  // the owning shard's exclusive lock; stable while any shared or
  // exclusive hold is live, which is what lets the hit path trust the
  // page-table entry it found.
  PageId page = 0;
  // Lock-free control bits. pin_count gates eviction (checked under the
  // exclusive lock; incremented under at least a shared lock, so the
  // check cannot race a new pin). referenced is the CLOCK bit. dirty
  // and tier are plain state with atomic access: MarkDirty and the
  // shared-lock hit path's promotion need no exclusive lock.
  std::atomic<int> pin_count{0};
  std::atomic<bool> dirty{false};
  std::atomic<bool> referenced{false};
  std::atomic<uint8_t> tier{static_cast<uint8_t>(PageTier::kCold)};
  std::vector<char> data;
};

}  // namespace internal

// RAII pin on a resident page. While alive, the frame cannot be evicted
// and data() stays valid. Move-only; destruction (unpin) is one atomic
// decrement and may happen on any thread.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(PageHandle&& other) noexcept { *this = std::move(other); }
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  char* data();
  const char* data() const;
  PageId page() const { return page_; }

  // Marks the frame dirty: written back on eviction / FlushAll.
  void MarkDirty();

  bool valid() const { return frame_ != nullptr; }

 private:
  friend class ShardedBufferPool;
  PageHandle(internal::Frame* frame, PageId page)
      : frame_(frame), page_(page) {}

  internal::Frame* frame_ = nullptr;
  PageId page_ = 0;
};

class ShardedBufferPool {
 public:
  // `file` must outlive the pool and is shared with all other users of
  // the pool (PagedFile is internally synchronized). All frames are
  // allocated up front.
  ShardedBufferPool(PagedFile* file, PoolOptions options);
  // Convenience: `capacity` frames, auto shard count.
  ShardedBufferPool(PagedFile* file, size_t capacity)
      : ShardedBufferPool(file, PoolOptions{capacity, 0}) {}

  ShardedBufferPool(const ShardedBufferPool&) = delete;
  ShardedBufferPool& operator=(const ShardedBufferPool&) = delete;
  ~ShardedBufferPool();

  // Pins the page, reading it from the file on a miss (a newly loaded
  // page enters the cold tier; a resident cold page is promoted by
  // this repeat hit). `miss`, when given, reports
  // whether THIS call read the file, which is what the I/O cost
  // accounting charges (a global miss-counter delta would misattribute
  // concurrent callers' misses). When every frame of the page's shard
  // is pinned, waits and retries -- yields, then sleeps with backoff,
  // for up to one second (pins on the read path are momentary, but
  // their holder may be descheduled) -- then fails with
  // kFailedPrecondition if the shard stays saturated, i.e. when frames
  // are *held* pinned, not merely in transit.
  StatusOr<PageHandle> Fetch(PageId page, bool* miss = nullptr);

  // Allocates a fresh page in the file and pins it (zeroed, dirty, in
  // the cold tier).
  StatusOr<PageHandle> Allocate();

  // Writes back every dirty frame and syncs the file. Not to be raced
  // with writes through pinned handles (see class comment).
  Status FlushAll();

  // Counter + occupancy snapshot (see PoolStatsSnapshot).
  PoolStatsSnapshot Stats() const;

  size_t capacity() const { return capacity_; }
  size_t shard_count() const { return shards_.size(); }
  // Aggregate convenience accessors (kept API-compatible with the old
  // single-thread pool for benches and the ablation harness).
  uint64_t hits() const { return Stats().hits(); }
  uint64_t misses() const {
    return counters_.misses.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const { return Stats().evictions(); }
  void ResetStats();

 private:
  using Frame = internal::Frame;

  struct Shard {
    mutable SharedMutex mu{"cache.shard"};
    // PageId -> index into `frames`. Reads under at least a shared
    // hold; inserts/erases under the exclusive hold.
    std::unordered_map<PageId, size_t> table GUARDED_BY(mu);
    // Fixed at construction (vector never resizes; Frame addresses are
    // stable). Frame *bindings* (page member) follow the table's lock
    // regime; frame control bits are atomics.
    std::vector<Frame> frames;
    std::vector<size_t> free_frames GUARDED_BY(mu);  // never-bound frames
    size_t clock_hand GUARDED_BY(mu) = 0;
  };

  // Monotone pool-wide counters (relaxed; totals converge).
  struct Counters {
    std::atomic<uint64_t> hot_hits{0};
    std::atomic<uint64_t> cold_hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> hot_evictions{0};
    std::atomic<uint64_t> cold_evictions{0};
    std::atomic<uint64_t> promotions{0};
    std::atomic<uint64_t> writebacks{0};
  };

  Shard& ShardOf(PageId page);

  // Pins `frame` and records the hit/promotion counters. Requires at
  // least a shared hold on the owning shard (the annotation is the
  // stronger exclusive REQUIRES on the miss path's re-check; the hit
  // path inlines the same logic under its shared hold).
  PageHandle PinResident(Frame& frame, PageId page);

  // Finds a frame for a new page under the shard's exclusive lock: a
  // never-bound frame, else a CLOCK sweep over unpinned cold frames,
  // else (only when no cold candidate exists) over unpinned hot frames.
  // Writes back the victim if dirty.
  StatusOr<size_t> GrabFrame(Shard& shard) REQUIRES(shard.mu);

  PagedFile* file_;
  size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable Counters counters_;
};

}  // namespace vsim::cache

#endif  // VSIM_CACHE_PAGE_CACHE_H_

// DbSnapshot: an immutable (database, index) pair tagged with a
// monotonically increasing generation number -- the unit of publication
// for online reindexing.
//
// The serving layer never mutates a database or an index in place.
// Instead, a rebuild (new objects, different r/k, different cover
// strategy) constructs a *fresh* CadDatabase + QueryEngine off-thread,
// wraps them in a DbSnapshot with the next generation number, and
// atomically swaps the service's current-snapshot pointer
// (QueryService::SwapSnapshot). This is the classic RCU-via-shared_ptr
// scheme:
//
//   - Readers (worker threads) acquire the current snapshot once per
//     request and hold a shared_ptr reference for the request's whole
//     execution, so a request observes exactly one generation
//     end-to-end even if a swap lands mid-query.
//   - The writer (one Rebuilder thread, or any external coordinator)
//     publishes a new snapshot; the old one is destroyed when the last
//     in-flight request drops its reference. No reader is ever blocked
//     and nothing is freed under a reader.
//
// Thread-safety: a DbSnapshot is immutable after construction and safe
// to share across any number of threads without synchronization (the
// same snapshot-immutable contract the engine's const query methods
// rely on; see docs/ARCHITECTURE.md "Snapshot lifecycle").
// Documented GUARDED_BY exclusion: every member is written exactly once
// inside Create/Wrap before the shared_ptr is published and never
// again; cross-thread visibility and lifetime are carried by the
// shared_ptr control block (acquire/release on the refcount), so no
// mutex exists for the analysis to check. The publication pointer
// itself lives in QueryService and *is* annotated
// (QueryService::snapshot_, GUARDED_BY(snapshot_mu_)).
#ifndef VSIM_SERVICE_DB_SNAPSHOT_H_
#define VSIM_SERVICE_DB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "vsim/core/query_engine.h"
#include "vsim/core/similarity.h"

namespace vsim {

class DbSnapshot {
 public:
  // Owning constructor: moves the database in and builds the engine's
  // index structures over it (the expensive step a Rebuilder runs
  // off-thread). The returned snapshot is self-contained.
  static std::shared_ptr<const DbSnapshot> Create(CadDatabase db,
                                                  uint64_t generation,
                                                  IoCostParams params = {});

  // Owning constructor for disk-backed serving: like Create, but also
  // writes every object's vector set into a fresh VectorSetStore file
  // at `store_path` (`pool_pages` frames of sharded buffer pool), in
  // QueryEngine::StoreRecordOrder -- each distinct set's first record
  // in the centroid filter's X-tree leaf order, so that one query's
  // candidates share pages, then every other member's record -- and
  // attaches it to the engine, so refinement fetches candidates through
  // real page I/O instead of the flat per-candidate simulation. The
  // snapshot owns the store; it is serveable concurrently exactly like
  // a RAM-resident snapshot (the pool's fetch path is thread-safe).
  //
  // By default the RAM copies of the demoted vector sets are released
  // after the engine's index build (the store holds the authoritative
  // copies; keeping both doubled the resident footprint). QueryService
  // and the engine's stored-id overloads hydrate stored-id queries
  // back from the store, so serving is unaffected. Pass keep_ram_sets =
  // true to retain the duplicates.
  static StatusOr<std::shared_ptr<const DbSnapshot>> CreateDiskBacked(
      CadDatabase db, const std::string& store_path, uint64_t generation,
      IoCostParams params = {}, size_t pool_pages = 64,
      bool keep_ram_sets = false);

  // Non-owning wrapper for callers that manage db/engine lifetime
  // themselves (the legacy QueryService constructor). `db` and `engine`
  // must outlive every reference to the snapshot.
  static std::shared_ptr<const DbSnapshot> Wrap(const CadDatabase* db,
                                                const QueryEngine* engine,
                                                uint64_t generation = 0);

  const CadDatabase& db() const { return *db_; }
  const QueryEngine& engine() const { return *engine_; }
  uint64_t generation() const { return generation_; }
  // The attached disk store, or nullptr for RAM-resident snapshots.
  // Exposed so the service's metrics collector can scrape the buffer
  // pool's counters (vsim_cache_pool_*).
  const VectorSetStore* store() const { return owned_store_.get(); }

  DbSnapshot(const DbSnapshot&) = delete;
  DbSnapshot& operator=(const DbSnapshot&) = delete;

 private:
  DbSnapshot() = default;

  // Owned storage (null for wrapped snapshots). The database lives in a
  // unique_ptr so its address is stable for the engine that indexes it;
  // same for the store the engine's refinement path reads through.
  std::unique_ptr<const CadDatabase> owned_db_;
  std::unique_ptr<VectorSetStore> owned_store_;
  std::unique_ptr<const QueryEngine> owned_engine_;

  const CadDatabase* db_ = nullptr;
  const QueryEngine* engine_ = nullptr;
  uint64_t generation_ = 0;
};

}  // namespace vsim

#endif  // VSIM_SERVICE_DB_SNAPSHOT_H_

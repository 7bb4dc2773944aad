// Query processing strategies of the paper's efficiency evaluation
// (Section 5.4, Table 2):
//
//   kOneVectorXTree  -- the cover-sequence one-vector model indexed by a
//                       6k-dimensional X-tree (no permutations).
//   kVectorSetFilter -- the vector set model with the extended-centroid
//                       filter step: a 6-d X-tree ranks candidates by
//                       the Lemma-2 lower bound, refined by the exact
//                       minimal matching distance (optimal multi-step
//                       k-NN).
//   kVectorSetScan   -- the vector set model with a sequential scan.
//
// All strategies charge simulated I/O (8 ms/page, 200 ns/byte) and
// measure CPU wall time, reproducing the paper's cost model.
//
// Equal vector sets are refined once (SetGrouping::kEqualSets, the
// default): the filter and scan strategies index and visit one entry
// per distinct vector set, carrying the ids of every object holding it,
// so one refinement serves them all. Their answers are canonical -- the
// k smallest (distance, id) pairs, range ids ascending -- and equal the
// per-object index's (SetGrouping::kNone) bit for bit. The one-vector
// strategy stays per object.
//
// Thread-safety: the engine and its indexes are immutable after
// construction; every query method is const and touches no mutable
// state, so any number of threads may query one engine concurrently
// (this is what the service layer's lock-free read path relies on --
// see docs/ARCHITECTURE.md). That includes AttachStore(): a disk-backed
// store routes refinement reads through the sharded buffer pool
// (src/vsim/cache/page_cache.h), whose fetch path is safe from any
// number of threads, so a store-attached engine serves concurrently
// exactly like a RAM-resident one. AttachStore() itself is setup-time
// plumbing: call it before the engine is shared, not during serving.
#ifndef VSIM_CORE_QUERY_ENGINE_H_
#define VSIM_CORE_QUERY_ENGINE_H_

#include <memory>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/core/similarity.h"
#include "vsim/index/io_stats.h"
#include "vsim/index/multistep.h"
#include "vsim/index/xtree.h"
#include "vsim/storage/vector_set_store.h"

namespace vsim {

// The wire protocol and the result-cache key carry these values, so
// they never change. Values 3 (a former vector-set M-tree) and 4 (a
// former VA-file centroid filter) are retired: never reused, and the
// wire decoder rejects them.
enum class QueryStrategy {
  kOneVectorXTree,
  kVectorSetFilter,
  kVectorSetScan,
};
// Every value below this one is a served strategy.
inline constexpr int kNumQueryStrategies = 3;

const char* QueryStrategyName(QueryStrategy strategy);

// How the vector-set filter and scan strategies group objects.
enum class SetGrouping {
  // One entry per distinct vector set: objects whose sets are the same
  // sequence of bit-identical vectors share it.
  kEqualSets,
  // Groups of one: the paper's per-object index, on the same code path.
  kNone,
};

struct QueryCost {
  double cpu_seconds = 0.0;
  IoStats io;
  size_t candidates_refined = 0;  // exact distance computations

  // Per-stage attribution (docs/OBSERVABILITY.md). Filter and scan
  // count groups of equal vector sets, not objects: filter_hits counts
  // the entries the filter step produced (Lemma 2: always >= the number
  // refined under the optimal multi-step algorithm); for scans every
  // group is a "hit". candidates_refined may be below k: one
  // refinement can certify a whole answer. hungarian_invocations counts
  // Kuhn-Munkres minimal-matching solves: on the filter strategy only
  // the refinements that neither the row-minimum bound nor the
  // reduction bound (PreparedQuery) already put above the current
  // threshold (so <= candidates_refined); one per refinement on scan;
  // zero for the one-vector model.
  // cpu_seconds is the engine's elapsed wall time (steady clock);
  // filter/refine_seconds split it for the filter strategy: filter is
  // the measured X-tree node expansions (k-NN) or index traversal
  // (range), refine the rest of the engine's time -- no clock is read
  // per candidate. Strategies without a split report the whole
  // execution as one stage (scan: refine; one-vector: filter).
  size_t filter_hits = 0;
  size_t hungarian_invocations = 0;
  double filter_seconds = 0.0;
  double refine_seconds = 0.0;

  // Non-OK when a disk-backed store read failed during refinement; the
  // query's answer is then empty (never a partial one).
  Status status;

  double IoSeconds(const IoCostParams& params = {}) const {
    return io.SimulatedSeconds(params);
  }
  double TotalSeconds(const IoCostParams& params = {}) const {
    return cpu_seconds + IoSeconds(params);
  }
  QueryCost& operator+=(const QueryCost& o) {
    cpu_seconds += o.cpu_seconds;
    io += o.io;
    candidates_refined += o.candidates_refined;
    filter_hits += o.filter_hits;
    hungarian_invocations += o.hungarian_invocations;
    filter_seconds += o.filter_seconds;
    refine_seconds += o.refine_seconds;
    if (status.ok()) status = o.status;
    return *this;
  }
};

class QueryEngine {
 public:
  // Builds the required index structures over `db` (which must have
  // cover features extracted and must outlive the engine). `grouping`
  // is the only switch between one entry per distinct vector set and
  // the per-object index.
  explicit QueryEngine(const CadDatabase* db, IoCostParams params = {},
                       SetGrouping grouping = SetGrouping::kEqualSets);

  // k-NN query with a stored object as the query (the paper queries
  // with 100 random database objects). When the database's RAM copy of
  // the query's set was released (DbSnapshot::CreateDiskBacked), it is
  // read from the attached store. With a store attached, a failed read
  // yields an empty result and cost->status says why.
  std::vector<Neighbor> Knn(QueryStrategy strategy, int query_id, int k,
                            QueryCost* cost = nullptr) const;

  // k-NN with an external query object.
  std::vector<Neighbor> Knn(QueryStrategy strategy, const ObjectRepr& query,
                            int k, QueryCost* cost = nullptr) const;

  // A stored object whose RAM vector set was released, rebuilt as a
  // query: its set read from the attached store (which must be set),
  // plus the RAM-resident fields the strategies read -- centroid and
  // cover_vector. Or the store read's error.
  StatusOr<ObjectRepr> HydrateStoredQuery(int query_id) const;

  // eps-range query on the vector set model (filter+refine vs scan).
  std::vector<int> Range(QueryStrategy strategy, const ObjectRepr& query,
                         double eps, QueryCost* cost = nullptr) const;

  // k-NN join: for every stored object, its k nearest neighbors
  // (excluding itself). The workhorse behind similarity-graph
  // construction and the batched form of the paper's 100-query
  // evaluation. Uses the filter pipeline per object; with the scan
  // strategy this degenerates to the full O(n^2) distance matrix.
  std::vector<std::vector<Neighbor>> KnnJoin(QueryStrategy strategy, int k,
                                             QueryCost* cost = nullptr) const;

  // Invariant k-NN (Definition 2 at query time, Section 3.2): runs one
  // filtered query per orientation of the query object -- 24 rotations,
  // or 48 with reflection invariance switched on -- and merges the
  // per-object minima. Works with the kVectorSetFilter and
  // kVectorSetScan strategies.
  std::vector<Neighbor> InvariantKnn(QueryStrategy strategy,
                                     const ObjectRepr& query, int k,
                                     bool with_reflections,
                                     QueryCost* cost = nullptr) const;

  // Invariant eps-range query: objects whose Definition-2 invariant
  // distance to the query is <= eps (union of the per-orientation
  // range results).
  std::vector<int> InvariantRange(QueryStrategy strategy,
                                  const ObjectRepr& query, double eps,
                                  bool with_reflections,
                                  QueryCost* cost = nullptr) const;

  const XTree& centroid_index() const { return *centroid_index_; }
  const XTree& one_vector_index() const { return *one_vector_index_; }

  // The record order of a disk-backed store for this engine: the first
  // (smallest) id of every distinct vector set in the centroid filter's
  // leaf order, then every other id in the same order. Refinement reads
  // only the first records, packed at the front of the file.
  std::vector<int> StoreRecordOrder() const;

  // Attaches a disk-backed vector-set store (must hold the same ids as
  // the database, in any record order). When attached, refinement
  // fetches candidates through the store's buffer pool: page accesses
  // are charged only on actual cache misses, instead of the flat
  // one-page-per-candidate simulation; the scan strategy visits groups
  // in the page order of their first records, so it reads each page
  // once. `store` must outlive the engine; pass nullptr to detach.
  void AttachStore(const VectorSetStore* store);

 private:
  const CadDatabase* db_;
  IoCostParams params_;
  int num_covers_;
  size_t scan_bytes_ = 0;  // total size of the groups' first records
  std::unique_ptr<XTree> centroid_index_;    // 6-d extended centroids
  std::unique_ptr<XTree> one_vector_index_;  // 6k-d cover vectors
  const VectorSetStore* store_ = nullptr;    // optional disk-backed fetches
  // Every group of equal vector sets, ids ascending, in the scan
  // strategy's visiting order: the page order of the groups' first
  // records in the attached store, else by first id.
  std::vector<std::vector<int>> scan_groups_;
};

}  // namespace vsim

#endif  // VSIM_CORE_QUERY_ENGINE_H_

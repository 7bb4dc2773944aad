#include "vsim/core/query_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <map>
#include <numeric>

#include "vsim/common/stopwatch.h"
#include "vsim/distance/lp.h"
#include "vsim/distance/centroid_filter.h"
#include "vsim/distance/min_matching.h"
#include "vsim/features/orientation.h"

namespace vsim {

namespace {

// Splits a query's elapsed CPU time into filter and refine stages.
// The X-tree filter strategy measures refinement inside MultiStep*
// (time in exact_distance calls), so filter = elapsed - refine. The
// strategies without a measured split charge the whole execution to
// the stage that dominates them by construction: scan and M-tree
// spend their CPU in exact distance evaluations (refine); the
// one-vector model has no refinement at all (filter).
void FinishStageAttribution(QueryStrategy strategy, double elapsed,
                            QueryCost* cost) {
  cost->cpu_seconds = elapsed;
  switch (strategy) {
    case QueryStrategy::kVectorSetFilter:
      cost->filter_seconds = std::max(0.0, elapsed - cost->refine_seconds);
      break;
    case QueryStrategy::kOneVectorXTree:
      cost->filter_seconds = elapsed;
      break;
    case QueryStrategy::kVectorSetScan:
    case QueryStrategy::kVectorSetMTree:
      cost->refine_seconds = elapsed;
      break;
  }
}

// The one refinement closure behind every vector-set strategy that
// refines through the engine (filter, scan). It flattens the query
// once, decodes each candidate into a reused flat buffer -- from the
// store through the buffer pool when one is attached, else from the
// RAM-resident set -- and computes the minimal matching distance with
// the row-minimum prune, so refinement allocates nothing per
// candidate. A failed store read is kept in
// status() and rules the candidate out; the caller then discards the
// whole answer.
class Refiner {
 public:
  Refiner(const CadDatabase& db, const VectorSetStore* store,
          const VectorSet& query)
      : db_(db), store_(store), query_values_(query.size() * query.dim()) {
    query_ = FlattenInto(query, query_values_.data());
  }

  Refinement operator()(int id, double prune_above, IoStats* stats) {
    constexpr Refinement kFailed{kNoPrune, false};
    FlatVectorSet candidate;
    if (store_ != nullptr) {
      // Disk-backed mode: really fetch the candidate through the buffer
      // pool; only cache misses are charged as page accesses.
      if (!status_.ok()) return kFailed;
      StatusOr<FlatVectorSet> read =
          store_->GetFlat(id, &candidate_values_, stats);
      if (!read.ok()) {
        status_ = read.status();
        return kFailed;
      }
      candidate = *read;
    } else {
      const ObjectRepr& repr = db_.object(id);
      if (stats != nullptr) {
        // Refinement loads the candidate's vector set: one random page
        // access plus its payload bytes.
        stats->AddPageAccesses(1);
        stats->AddBytesRead(repr.VectorSetBytes());
      }
      candidate_values_.resize(repr.vector_set.size() *
                               repr.vector_set.dim());
      candidate = FlattenInto(repr.vector_set, candidate_values_.data());
    }
    Refinement r;
    r.distance = VectorSetDistance(query_, candidate, prune_above, &r.exact);
    return r;
  }

  // The ExactDistanceFn shape (never prunes) for the scan loops.
  ExactDistanceFn Exact() {
    return [this](int id, IoStats* stats) {
      return (*this)(id, kNoPrune, stats).distance;
    };
  }

  const Status& status() const { return status_; }

 private:
  const CadDatabase& db_;
  const VectorSetStore* store_;
  std::vector<double> query_values_;
  FlatVectorSet query_;
  std::vector<double> candidate_values_;
  Status status_;
};

// The engine's groups: ids ascending within a group, groups by their
// smallest id. kEqualSets joins objects whose vector sets are the same
// sequence of bit-identical vectors -- never by centroid, which two
// distinct sets can share. Not by multiset: the matching distance sums
// its terms in vector order, so two orders of one set can differ in
// the last bit, while equal sequences give every member the distance
// of the group's first record exactly.
std::vector<std::vector<int>> GroupObjects(const CadDatabase& db,
                                           SetGrouping grouping) {
  const int n = static_cast<int>(db.size());
  std::vector<std::vector<int>> groups;
  if (grouping == SetGrouping::kNone) {
    for (int id = 0; id < n; ++id) groups.push_back({id});
    return groups;
  }
  std::map<std::vector<uint64_t>, size_t> group_of;
  for (int id = 0; id < n; ++id) {
    const VectorSet& set = db.object(id).vector_set;
    std::vector<uint64_t> key{set.size(), set.dim()};
    for (const FeatureVector& v : set.vectors) {
      for (double c : v) key.push_back(std::bit_cast<uint64_t>(c));
    }
    const auto [it, inserted] = group_of.emplace(std::move(key), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(id);
  }
  return groups;
}

}  // namespace

const char* QueryStrategyName(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kOneVectorXTree:
      return "1-vector X-tree";
    case QueryStrategy::kVectorSetFilter:
      return "vector set + filter";
    case QueryStrategy::kVectorSetScan:
      return "vector set seq. scan";
    case QueryStrategy::kVectorSetMTree:
      return "vector set M-tree";
  }
  return "unknown";
}

QueryEngine::QueryEngine(const CadDatabase* db, IoCostParams params,
                         SetGrouping grouping)
    : db_(db), params_(params), num_covers_(db->options().num_covers) {
  assert(db_->size() > 0);
  const int dim = static_cast<int>(db_->object(0).centroid.size());
  const int one_vector_dim =
      static_cast<int>(db_->object(0).cover_vector.size());

  XTreeOptions xopts;
  xopts.page_size_bytes = params_.page_size_bytes;
  centroid_index_ = std::make_unique<XTree>(dim, xopts);
  one_vector_index_ = std::make_unique<XTree>(one_vector_dim, xopts);

  MTreeOptions mopts;
  mopts.page_size_bytes = params_.page_size_bytes;
  mopts.object_bytes =
      static_cast<size_t>(num_covers_) * dim * sizeof(double);
  mtree_ = std::make_unique<MTree<VectorSet>>(
      [](const VectorSet& a, const VectorSet& b) {
        return VectorSetDistance(a, b);
      },
      mopts);

  // The X-trees are bulk-loaded (STR packing); the M-tree grows by
  // insertion (metric trees have no comparable packing). The centroid
  // X-tree holds one entry per group, at its smallest member's
  // centroid, and declares the largest rounding error of those points.
  scan_groups_ = GroupObjects(*db_, grouping);
  std::vector<FeatureVector> group_centroids;
  group_centroids.reserve(scan_groups_.size());
  double point_error = 0.0;
  for (const std::vector<int>& members : scan_groups_) {
    const ObjectRepr& repr = db_->object(members.front());
    group_centroids.push_back(repr.centroid);
    point_error = std::max(
        point_error, ExtendedCentroidError(repr.vector_set, num_covers_));
    scan_bytes_ += repr.VectorSetBytes();
  }
  Status st = centroid_index_->BulkLoadGroups(group_centroids, scan_groups_);
  assert(st.ok());
  centroid_index_->set_point_error(point_error);

  std::vector<FeatureVector> cover_vectors;
  std::vector<int> ids;
  cover_vectors.reserve(db_->size());
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    const ObjectRepr& repr = db_->object(id);
    cover_vectors.push_back(repr.cover_vector);
    ids.push_back(id);
    mtree_->Insert(repr.vector_set, id);
  }
  st = one_vector_index_->BulkLoad(cover_vectors, ids);
  assert(st.ok());
  (void)st;
}

std::vector<int> QueryEngine::StoreRecordOrder() const {
  const std::vector<std::span<const int>> entries =
      centroid_index_->LeafEntries();
  std::vector<int> order;
  order.reserve(db_->size());
  for (std::span<const int> members : entries) {
    order.push_back(members.front());
  }
  for (std::span<const int> members : entries) {
    order.insert(order.end(), members.begin() + 1, members.end());
  }
  return order;
}

void QueryEngine::AttachStore(const VectorSetStore* store) {
  // Same ids as the database, each exactly once (the store refuses
  // duplicate ids, so a full page order is a permutation of them).
  assert(store == nullptr || (store->size() == db_->size() &&
                              store->page_order().size() == db_->size()));
  store_ = store;
  // Visit the groups in the page order of their first records, or by
  // first id without a store.
  std::vector<size_t> position(db_->size());
  if (store != nullptr) {
    for (size_t i = 0; i < store->page_order().size(); ++i) {
      position[store->page_order()[i]] = i;
    }
  } else {
    std::iota(position.begin(), position.end(), size_t{0});
  }
  std::sort(scan_groups_.begin(), scan_groups_.end(),
            [&position](const std::vector<int>& a, const std::vector<int>& b) {
              return position[a.front()] < position[b.front()];
            });
}

std::vector<Neighbor> QueryEngine::Knn(QueryStrategy strategy, int query_id,
                                       int k, QueryCost* cost) const {
  const ObjectRepr& stored = db_->object(query_id);
  if (!stored.vector_set.empty() || store_ == nullptr) {
    return Knn(strategy, stored, k, cost);
  }
  // The RAM copy was released: hydrate the fields the strategies read.
  ObjectRepr query;
  StatusOr<VectorSet> set = store_->Get(query_id);
  if (!set.ok()) {
    if (cost != nullptr) {
      *cost = QueryCost{};
      cost->status = set.status();
    }
    return {};
  }
  query.vector_set = std::move(set).value();
  query.centroid = stored.centroid;
  query.cover_vector = stored.cover_vector;
  return Knn(strategy, query, k, cost);
}

std::vector<Neighbor> QueryEngine::Knn(QueryStrategy strategy,
                                       const ObjectRepr& query, int k,
                                       QueryCost* cost) const {
  QueryCost local;
  Stopwatch watch;
  std::vector<Neighbor> result;
  Refiner refiner(*db_, store_, query.vector_set);
  const RefineFn refine = std::ref(refiner);
  switch (strategy) {
    case QueryStrategy::kOneVectorXTree: {
      result = one_vector_index_->KnnQuery(query.cover_vector, k, &local.io);
      break;
    }
    case QueryStrategy::kVectorSetFilter: {
      MultiStepStats ms;
      result = MultiStepKnn(*centroid_index_, query.centroid,
                            static_cast<double>(num_covers_), k, refine,
                            &local.io, &ms);
      local.candidates_refined = ms.candidates_refined;
      local.filter_hits = ms.filter_hits;
      local.hungarian_invocations = ms.hungarian_invocations;
      local.refine_seconds = ms.refine_seconds;
      break;
    }
    case QueryStrategy::kVectorSetScan: {
      result = ScanKnn(scan_groups_, k, scan_bytes_, params_.page_size_bytes,
                       refiner.Exact(), &local.io);
      // No filter: every group qualifies and is solved.
      local.candidates_refined = scan_groups_.size();
      local.filter_hits = scan_groups_.size();
      local.hungarian_invocations = scan_groups_.size();
      break;
    }
    case QueryStrategy::kVectorSetMTree: {
      size_t evals = 0;
      result = mtree_->KnnQuery(query.vector_set, k, &local.io, &evals);
      local.candidates_refined = evals;
      local.filter_hits = evals;
      local.hungarian_invocations = evals;
      break;
    }
  }
  if (!refiner.status().ok()) {
    local.status = refiner.status();
    result.clear();
  }
  FinishStageAttribution(strategy, watch.ElapsedSeconds(), &local);
  if (cost != nullptr) *cost = local;
  return result;
}

std::vector<std::vector<Neighbor>> QueryEngine::KnnJoin(
    QueryStrategy strategy, int k, QueryCost* cost) const {
  QueryCost total;
  std::vector<std::vector<Neighbor>> result(db_->size());
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    QueryCost one;
    // Query k+1 and drop the self-match (distance 0 to itself).
    std::vector<Neighbor> hits = Knn(strategy, id, k + 1, &one);
    total += one;
    std::vector<Neighbor> filtered;
    filtered.reserve(k);
    for (const Neighbor& n : hits) {
      if (n.id != id && static_cast<int>(filtered.size()) < k) {
        filtered.push_back(n);
      }
    }
    result[id] = std::move(filtered);
  }
  if (cost != nullptr) *cost = total;
  return result;
}

std::vector<Neighbor> QueryEngine::InvariantKnn(QueryStrategy strategy,
                                                const ObjectRepr& query,
                                                int k, bool with_reflections,
                                                QueryCost* cost) const {
  QueryCost total;
  const std::vector<Mat3>& group =
      with_reflections ? CubeRotationsWithReflections() : CubeRotations();
  std::map<int, double> best_by_object;
  for (const Mat3& m : group) {
    ObjectRepr oriented;
    oriented.vector_set = TransformVectorSet(query.vector_set, m);
    oriented.centroid = ExtendedCentroid(oriented.vector_set, num_covers_);
    QueryCost one;
    const std::vector<Neighbor> hits = Knn(strategy, oriented, k, &one);
    total += one;
    for (const Neighbor& n : hits) {
      auto [it, inserted] = best_by_object.emplace(n.id, n.distance);
      if (!inserted) it->second = std::min(it->second, n.distance);
    }
  }
  std::vector<Neighbor> merged;
  merged.reserve(best_by_object.size());
  for (const auto& [id, d] : best_by_object) merged.push_back({id, d});
  std::sort(merged.begin(), merged.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.id < b.id);
            });
  if (static_cast<int>(merged.size()) > k) merged.resize(k);
  if (!total.status.ok()) merged.clear();
  if (cost != nullptr) *cost = total;
  return merged;
}

std::vector<int> QueryEngine::InvariantRange(QueryStrategy strategy,
                                             const ObjectRepr& query,
                                             double eps,
                                             bool with_reflections,
                                             QueryCost* cost) const {
  QueryCost total;
  const std::vector<Mat3>& group =
      with_reflections ? CubeRotationsWithReflections() : CubeRotations();
  std::vector<int> merged;
  for (const Mat3& m : group) {
    ObjectRepr oriented;
    oriented.vector_set = TransformVectorSet(query.vector_set, m);
    oriented.centroid = ExtendedCentroid(oriented.vector_set, num_covers_);
    QueryCost one;
    const std::vector<int> hits = Range(strategy, oriented, eps, &one);
    total += one;
    merged.insert(merged.end(), hits.begin(), hits.end());
  }
  std::sort(merged.begin(), merged.end());
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  if (!total.status.ok()) merged.clear();
  if (cost != nullptr) *cost = total;
  return merged;
}

std::vector<int> QueryEngine::Range(QueryStrategy strategy,
                                    const ObjectRepr& query, double eps,
                                    QueryCost* cost) const {
  QueryCost local;
  Stopwatch watch;
  std::vector<int> result;
  Refiner refiner(*db_, store_, query.vector_set);
  const RefineFn refine = std::ref(refiner);
  switch (strategy) {
    case QueryStrategy::kVectorSetFilter: {
      MultiStepStats ms;
      result = MultiStepRange(*centroid_index_, query.centroid,
                              static_cast<double>(num_covers_), eps, refine,
                              &local.io, &ms);
      local.candidates_refined = ms.candidates_refined;
      local.filter_hits = ms.filter_hits;
      local.hungarian_invocations = ms.hungarian_invocations;
      local.refine_seconds = ms.refine_seconds;
      break;
    }
    case QueryStrategy::kVectorSetScan: {
      result = ScanRange(scan_groups_, eps, scan_bytes_,
                         params_.page_size_bytes, refiner.Exact(), &local.io);
      local.candidates_refined = scan_groups_.size();
      local.filter_hits = scan_groups_.size();
      local.hungarian_invocations = scan_groups_.size();
      break;
    }
    case QueryStrategy::kVectorSetMTree: {
      size_t evals = 0;
      result = mtree_->RangeQuery(query.vector_set, eps, &local.io, &evals);
      local.candidates_refined = evals;
      local.filter_hits = evals;
      local.hungarian_invocations = evals;
      break;
    }
    case QueryStrategy::kOneVectorXTree: {
      result = one_vector_index_->RangeQuery(query.cover_vector, eps,
                                             &local.io);
      break;
    }
  }
  if (!refiner.status().ok()) {
    local.status = refiner.status();
    result.clear();
  }
  FinishStageAttribution(strategy, watch.ElapsedSeconds(), &local);
  if (cost != nullptr) *cost = local;
  return result;
}

}  // namespace vsim

#include "vsim/index/multistep.h"

#include <algorithm>
#include <limits>

#include "vsim/common/stopwatch.h"

namespace vsim {

namespace {

// One timed, counted refine call.
Refinement Refine(const RefineFn& refine, int id, double prune_above,
                  IoStats* stats, MultiStepStats* ms) {
  Stopwatch refine_watch;
  const Refinement r = refine(id, prune_above, stats);
  ms->refine_seconds += refine_watch.ElapsedSeconds();
  ++ms->candidates_refined;
  if (r.exact) ++ms->hungarian_invocations;
  return r;
}

// The optimal multi-step k-NN loop (Seidl & Kriegel) behind both k-NN
// entry points. `source` yields candidates in ascending lower-bound
// order: HasNext(), NextBound() (the next candidate's bound, already
// scaled) and Take() (its id).
template <typename Source>
std::vector<Neighbor> OptimalKnn(Source& source, int k, const RefineFn& refine,
                                 IoStats* stats, MultiStepStats* msstats) {
  // Max-heap of the k best exact distances seen so far.
  std::vector<Neighbor> best;  // kept heapified, largest distance on top
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  };
  MultiStepStats local;
  while (k > 0 && source.HasNext()) {
    const bool full = static_cast<int>(best.size()) == k;
    const double threshold =
        full ? best.front().distance : std::numeric_limits<double>::infinity();
    if (source.NextBound() > threshold) {
      break;  // optimal stopping condition (Seidl & Kriegel)
    }
    const int id = source.Take();
    ++local.filter_hits;
    const Refinement r = Refine(refine, id, threshold, stats, &local);
    if (!full) {
      best.push_back({id, r.distance});
      std::push_heap(best.begin(), best.end(), cmp);
    } else if (r.distance < threshold) {
      std::pop_heap(best.begin(), best.end(), cmp);
      best.back() = {id, r.distance};
      std::push_heap(best.begin(), best.end(), cmp);
    }
  }
  std::sort_heap(best.begin(), best.end(), cmp);
  if (msstats != nullptr) *msstats = local;
  return best;
}

RefineFn NeverPrune(const ExactDistanceFn& exact_distance) {
  return [&exact_distance](int id, double, IoStats* stats) {
    return Refinement{exact_distance(id, stats), true};
  };
}

}  // namespace

std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const RefineFn& refine, IoStats* stats,
                                   MultiStepStats* msstats) {
  struct RankingSource {
    XTree::RankingCursor cursor;
    double scale;
    bool HasNext() { return cursor.HasNext(); }
    double NextBound() { return cursor.NextDistance() * scale; }
    int Take() { return cursor.Next().id; }
  } source{filter_index.Rank(filter_query, stats), filter_scale};
  return OptimalKnn(source, k, refine, stats, msstats);
}

std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const ExactDistanceFn& exact_distance,
                                   IoStats* stats, MultiStepStats* msstats) {
  return MultiStepKnn(filter_index, filter_query, filter_scale, k,
                      NeverPrune(exact_distance), stats, msstats);
}

std::vector<Neighbor> SortedBoundKnn(
    const std::vector<BoundedCandidate>& candidates, int k,
    const RefineFn& refine, IoStats* stats, MultiStepStats* msstats) {
  struct SortedSource {
    const std::vector<BoundedCandidate>& candidates;
    size_t next = 0;
    bool HasNext() const { return next < candidates.size(); }
    double NextBound() const { return candidates[next].bound; }
    int Take() { return candidates[next++].id; }
  } source{candidates};
  return OptimalKnn(source, k, refine, stats, msstats);
}

std::vector<int> MultiStepRange(const XTree& filter_index,
                                const FeatureVector& filter_query,
                                double filter_scale, double eps,
                                const RefineFn& refine, IoStats* stats,
                                MultiStepStats* msstats) {
  const std::vector<int> candidates =
      filter_index.RangeQuery(filter_query, eps / filter_scale, stats);
  MultiStepStats local;
  local.filter_hits = candidates.size();
  std::vector<int> result;
  for (int id : candidates) {
    if (Refine(refine, id, eps, stats, &local).distance <= eps) {
      result.push_back(id);
    }
  }
  if (msstats != nullptr) *msstats = local;
  return result;
}

std::vector<int> MultiStepRange(const XTree& filter_index,
                                const FeatureVector& filter_query,
                                double filter_scale, double eps,
                                const ExactDistanceFn& exact_distance,
                                IoStats* stats, MultiStepStats* msstats) {
  return MultiStepRange(filter_index, filter_query, filter_scale, eps,
                        NeverPrune(exact_distance), stats, msstats);
}

std::vector<int> BoundedRange(const std::vector<BoundedCandidate>& candidates,
                              double eps, const RefineFn& refine,
                              IoStats* stats, MultiStepStats* msstats) {
  MultiStepStats local;
  std::vector<int> result;
  for (const BoundedCandidate& candidate : candidates) {
    if (candidate.bound > eps) continue;
    ++local.filter_hits;
    if (Refine(refine, candidate.id, eps, stats, &local).distance <= eps) {
      result.push_back(candidate.id);
    }
  }
  if (msstats != nullptr) *msstats = local;
  return result;
}

namespace {

void ChargeSequentialScan(size_t scan_bytes, size_t page_size,
                          IoStats* stats) {
  if (stats == nullptr) return;
  stats->AddPageAccesses((scan_bytes + page_size - 1) / page_size);
  stats->AddBytesRead(scan_bytes);
}

}  // namespace

std::vector<Neighbor> ScanKnn(const std::vector<int>& order, int k,
                              size_t scan_bytes, size_t page_size,
                              const ExactDistanceFn& exact_distance,
                              IoStats* stats) {
  ChargeSequentialScan(scan_bytes, page_size, stats);
  const int count = static_cast<int>(order.size());
  std::vector<Neighbor> all(count);
  for (int id : order) {
    // Object bytes already charged by the sequential read: pass no
    // stats to the distance evaluation.
    all[id] = {id, exact_distance(id, nullptr)};
  }
  const int kk = std::min<int>(k, count);
  std::partial_sort(all.begin(), all.begin() + kk, all.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance;
                    });
  all.resize(kk);
  return all;
}

std::vector<int> ScanRange(const std::vector<int>& order, double eps,
                           size_t scan_bytes, size_t page_size,
                           const ExactDistanceFn& exact_distance,
                           IoStats* stats) {
  ChargeSequentialScan(scan_bytes, page_size, stats);
  std::vector<int> result;
  for (int id : order) {
    if (exact_distance(id, nullptr) <= eps) result.push_back(id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace vsim

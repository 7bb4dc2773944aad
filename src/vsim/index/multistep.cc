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

RefineFn NeverPrune(const ExactDistanceFn& exact_distance) {
  return [&exact_distance](int id, double, IoStats* stats) {
    return Refinement{exact_distance(id, stats), true};
  };
}

}  // namespace

// The optimal multi-step k-NN loop (Seidl & Kriegel): the ranking
// cursor yields candidates in ascending filter distance, and the loop
// stops as soon as the next scaled filter distance exceeds the current
// k-th exact distance.
std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const RefineFn& refine, IoStats* stats,
                                   MultiStepStats* msstats) {
  XTree::RankingCursor cursor = filter_index.Rank(filter_query, stats);
  // Max-heap of the k best exact distances seen so far.
  std::vector<Neighbor> best;  // kept heapified, largest distance on top
  auto cmp = [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  };
  MultiStepStats local;
  while (k > 0 && cursor.HasNext()) {
    const bool full = static_cast<int>(best.size()) == k;
    const double threshold =
        full ? best.front().distance : std::numeric_limits<double>::infinity();
    if (cursor.NextDistance() * filter_scale > threshold) {
      break;  // optimal stopping condition (Seidl & Kriegel)
    }
    const int id = cursor.Next().id;
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

std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const ExactDistanceFn& exact_distance,
                                   IoStats* stats, MultiStepStats* msstats) {
  return MultiStepKnn(filter_index, filter_query, filter_scale, k,
                      NeverPrune(exact_distance), stats, msstats);
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
  if (k <= 0) return {};
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

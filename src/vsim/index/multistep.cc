#include "vsim/index/multistep.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "vsim/common/math_util.h"
#include "vsim/common/stopwatch.h"

namespace vsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The canonical answer order: (distance, id) ascending.
bool Closer(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
}

// The rounding-safe Lemma-2 filter. With k = filter_scale (the maximum
// set size), d = the index dimensionality, u = 2^-53 and E = the
// tree's point error, let M be the exact distance between the computed
// centroids of query Q and candidate Y, F = fl(fl(M) * k) the loop's
// filter value and D the computed minimal matching distance:
//
//   - D >= (1 - gamma_{k+d+1}) * dist_mm(Q, Y): D sums at most k
//     nonnegative costs (k - 1 additions), each a d-term ground
//     distance or weight (d + 2 roundings);
//   - F <= (1 + gamma_{d+3}) * k * M: the d-term index distance and
//     the product;
//   - a centroid summed from n <= k vectors errs by at most
//     gamma_k * W / k with W = sum of the vectors' norms, which is the
//     set's minimal matching distance to the empty set (reference
//     point: the origin). E bounds that for every stored point; for
//     the query, the triangle inequality W(Q) <= W(Y) + dist_mm(Q, Y)
//     turns it into k * E + gamma_k * dist_mm(Q, Y).
//
// Chaining these with Lemma 2, D >= (1 - gamma_{2k+2d+4}) * F - 2kE.
// The loops use that bound with six more roundings, covering its own
// evaluation: the k-NN loop stops only when it exceeds the k-th
// distance, and the range filter's radius is eps / k grown to match.
// The bound never exceeds a computed distance it stands for, even for
// two vector orders of one set (centroids equal in exact arithmetic,
// computed distance 0), so the loops dismiss nothing a brute-force scan
// of computed distances would return.
class FilterRounding {
 public:
  FilterRounding(const XTree& index, double filter_scale)
      : scale_(filter_scale), point_error_(index.point_error()) {
    const int k = static_cast<int>(std::ceil(filter_scale));
    gamma_ = RoundingGamma(2 * k + 2 * index.dim() + 10);
  }

  // A lower bound on the computed exact distance of every candidate
  // whose index distance is at least `index_distance`.
  double LowerBound(double index_distance) const {
    return index_distance * scale_ * (1.0 - gamma_) -
           2.0 * scale_ * point_error_;
  }

  // An index radius holding every candidate whose computed exact
  // distance is at most `eps`.
  double Radius(double eps) const {
    return (eps / scale_ + 2.0 * point_error_) * (1.0 + gamma_);
  }

 private:
  double scale_;
  double point_error_;
  double gamma_;
};

// One counted refine call.
Refinement Refine(const RefineFn& refine, int id, double prune_above,
                  IoStats* stats, MultiStepStats* ms) {
  const Refinement r = refine(id, prune_above, stats);
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
// cursor yields entries in ascending filter distance, and the loop
// stops as soon as the next entry's rounding-safe bound exceeds the
// current k-th exact distance.
std::vector<Neighbor> MultiStepKnn(const XTree& filter_index,
                                   const FeatureVector& filter_query,
                                   double filter_scale, int k,
                                   const RefineFn& refine, IoStats* stats,
                                   MultiStepStats* msstats) {
  const FilterRounding rounding(filter_index, filter_scale);
  XTree::RankingCursor cursor = filter_index.Rank(filter_query, stats);
  // The k smallest (distance, id) pairs so far, kept heapified with the
  // largest on top.
  std::vector<Neighbor> best;
  MultiStepStats local;
  while (k > 0 && cursor.HasNext()) {
    const bool full = static_cast<int>(best.size()) == k;
    const double threshold = full ? best.front().distance : kInf;
    if (rounding.LowerBound(cursor.NextDistance()) > threshold) {
      break;  // optimal stopping condition (Seidl & Kriegel)
    }
    const RankedEntry entry = cursor.Next();
    ++local.filter_hits;
    // A member tying the k-th distance with a smaller id still enters,
    // so the threshold itself is no prune.
    const double distance =
        Refine(refine, entry.members.front(), threshold, stats, &local)
            .distance;
    for (int id : entry.members) {
      const Neighbor candidate{id, distance};
      if (static_cast<int>(best.size()) < k) {
        best.push_back(candidate);
        std::push_heap(best.begin(), best.end(), Closer);
      } else if (Closer(candidate, best.front())) {
        std::pop_heap(best.begin(), best.end(), Closer);
        best.back() = candidate;
        std::push_heap(best.begin(), best.end(), Closer);
      } else {
        break;  // the later members have larger ids
      }
    }
  }
  std::sort_heap(best.begin(), best.end(), Closer);
  local.filter_seconds = cursor.expansion_seconds();
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
  const FilterRounding rounding(filter_index, filter_scale);
  const Stopwatch filter_watch;
  const std::vector<std::span<const int>> candidates =
      filter_index.RangeEntries(filter_query, rounding.Radius(eps), stats);
  MultiStepStats local;
  local.filter_seconds = filter_watch.ElapsedSeconds();
  local.filter_hits = candidates.size();
  std::vector<int> result;
  for (std::span<const int> members : candidates) {
    if (Refine(refine, members.front(), eps, stats, &local).distance <= eps) {
      result.insert(result.end(), members.begin(), members.end());
    }
  }
  std::sort(result.begin(), result.end());
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

std::vector<Neighbor> ScanKnn(const std::vector<std::vector<int>>& groups,
                              int k, size_t scan_bytes, size_t page_size,
                              const ExactDistanceFn& exact_distance,
                              IoStats* stats) {
  if (k <= 0) return {};
  ChargeSequentialScan(scan_bytes, page_size, stats);
  std::vector<Neighbor> all;
  for (const std::vector<int>& members : groups) {
    // Object bytes already charged by the sequential read: pass no
    // stats to the distance evaluation.
    const double distance = exact_distance(members.front(), nullptr);
    for (int id : members) all.push_back({id, distance});
  }
  const size_t kk = std::min(static_cast<size_t>(k), all.size());
  std::partial_sort(all.begin(), all.begin() + kk, all.end(), Closer);
  all.resize(kk);
  return all;
}

std::vector<int> ScanRange(const std::vector<std::vector<int>>& groups,
                           double eps, size_t scan_bytes, size_t page_size,
                           const ExactDistanceFn& exact_distance,
                           IoStats* stats) {
  ChargeSequentialScan(scan_bytes, page_size, stats);
  std::vector<int> result;
  for (const std::vector<int>& members : groups) {
    if (exact_distance(members.front(), nullptr) <= eps) {
      result.insert(result.end(), members.begin(), members.end());
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace vsim

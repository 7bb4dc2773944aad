#include "vsim/distance/min_matching.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "vsim/distance/min_cost_flow.h"
#include "vsim/distance/lp.h"

namespace vsim {

namespace {

// Stack capacity of one flattened set (16 vectors of 16 dimensions) and
// of the square cost matrix.
constexpr size_t kInlineFlatDoubles = 256;
constexpr size_t kInlineCostDoubles =
    static_cast<size_t>(kInlineAssignmentCols) * kInlineAssignmentCols;

kernels::GroundKind ToKernelGround(GroundDistance g) {
  switch (g) {
    case GroundDistance::kEuclidean:
      return kernels::GroundKind::kEuclidean;
    case GroundDistance::kSquaredEuclidean:
      return kernels::GroundKind::kSquaredEuclidean;
    case GroundDistance::kManhattan:
      return kernels::GroundKind::kManhattan;
  }
  return kernels::GroundKind::kEuclidean;
}

// w(x) = dist(x, omega), omega = origin when empty. Accumulates in lp.h's
// element order, so it equals the per-vector helpers bit for bit.
double Weight(GroundDistance g, const double* x, size_t dim,
              const FeatureVector& omega) {
  double sum = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = omega.empty() ? x[d] : x[d] - omega[d];
    sum += g == GroundDistance::kManhattan ? std::fabs(diff) : diff * diff;
  }
  return g == GroundDistance::kEuclidean ? std::sqrt(sum) : sum;
}

// The vector set model's omega: the origin.
const FeatureVector kOrigin;

double Finish(const MinMatchingOptions& opt, double total) {
  return opt.sqrt_of_total ? std::sqrt(total) : total;
}

// A VectorSet copied into stack scratch in the flat layout.
class FlatCopy {
 public:
  explicit FlatCopy(const VectorSet& set)
      : buffer_(set.size() * set.dim()),
        view_(FlattenInto(set, buffer_.data())) {}
  const FlatVectorSet& view() const { return view_; }

 private:
  ScratchArray<double, kInlineFlatDoubles> buffer_;
  FlatVectorSet view_;
};

// The minimal-matching core of the option-taking forms. `large` has at
// least as many vectors (m) as `small` (n). Builds the square m x m
// cost matrix -- columns [0, n) are the elements of `small`, columns
// [n, m) are "unmatched" slots charging w(x) -- with one batched kernel
// call for the ground block (docs/KERNELS.md), then solves it. Returns
// the total before Finish(). Writes the solver's column per row and the
// identity pairing cost (the matrix trace: element i with element i,
// surplus unmatched) when asked.
double Match(const FlatVectorSet& large, const FlatVectorSet& small,
             const MinMatchingOptions& opt, int* column_of,
             double* identity_cost) {
  if (identity_cost != nullptr) *identity_cost = 0.0;
  const int m = static_cast<int>(large.size);
  const int n = static_cast<int>(small.size);
  if (m == 0) return 0.0;  // both sets empty
  assert(large.dim == small.dim || n == 0);

  const size_t dim = large.dim;
  ScratchArray<double, kInlineCostDoubles> cost_store(
      static_cast<size_t>(m) * m);
  double* cost = cost_store.data();
  kernels::Active().cost_matrix_build(ToKernelGround(opt.ground), large.data,
                                      m, small.data, n, dim, cost, m);
  for (int i = 0; i < m; ++i) {
    double* row = cost + static_cast<size_t>(i) * m;
    std::fill(row + n, row + m,
              Weight(opt.ground, large.data + i * dim, dim, opt.omega));
  }
  if (identity_cost != nullptr) {
    for (int i = 0; i < m; ++i) {
      *identity_cost += cost[static_cast<size_t>(i) * m + i];
    }
  }
  return SolveAssignment(cost, m, m, column_of);
}

}  // namespace

MatchingDistanceResult MinimalMatchingDistanceDetailed(
    const VectorSet& a, const VectorSet& b, const MinMatchingOptions& opt) {
  MatchingDistanceResult result;
  result.first_is_larger = a.size() >= b.size();
  const FlatCopy large(result.first_is_larger ? a : b);
  const FlatCopy small(result.first_is_larger ? b : a);
  const int n = static_cast<int>(small.view().size);
  result.assignment.resize(large.view().size);
  double identity = 0.0;
  const double total = Match(large.view(), small.view(), opt,
                             result.assignment.data(), &identity);
  for (int& partner : result.assignment) {
    if (partner >= n) partner = -1;  // an "unmatched" slot
  }
  result.permutation_used = total < identity - 1e-12 * (1.0 + identity);
  result.distance = Finish(opt, total);
  result.identity_cost = Finish(opt, identity);
  return result;
}

double MinimalMatchingDistance(const VectorSet& a, const VectorSet& b,
                               const MinMatchingOptions& opt) {
  const FlatCopy fa(a), fb(b);
  return MinimalMatchingDistance(fa.view(), fb.view(), opt);
}

double VectorSetDistance(const VectorSet& a, const VectorSet& b) {
  const FlatCopy fa(a), fb(b);
  return MinimalMatchingDistance(fa.view(), fb.view(), MinMatchingOptions{});
}

double MinimalMatchingDistance(const FlatVectorSet& a, const FlatVectorSet& b,
                               const MinMatchingOptions& opt) {
  const bool a_is_larger = a.size >= b.size;
  return Finish(opt, Match(a_is_larger ? a : b, a_is_larger ? b : a, opt,
                           nullptr, nullptr));
}

PreparedQuery::PreparedQuery(const FlatVectorSet& query)
    : kernels_(kernels::Active()),
      lanes_(query.dim * kernels::PreparedStride(query.size)),
      weights_(kernels::PreparedStride(query.size)) {
  const size_t stride = kernels::PreparedStride(query.size);
  kernels::LayOutLanes(query.data, query.size, query.dim, lanes_.data());
  double* weights = weights_.data();
  for (size_t i = 0; i < query.size; ++i) {
    weights[i] = Weight(GroundDistance::kEuclidean,
                        query.data + i * query.dim, query.dim, kOrigin);
  }
  std::fill(weights + query.size, weights + stride, 0.0);
  set_ = {query.data, lanes_.data(), weights, query.size, query.dim};
}

double PreparedQuery::Distance(const FlatVectorSet& candidate,
                               double prune_above, bool* solved) const {
  if (solved != nullptr) *solved = true;
  const FlatVectorSet query{set_.rows, set_.size, set_.dim};
  if (prune_above < kNoPrune && std::max(query.size, candidate.size) > 0) {
    assert(query.dim == candidate.dim || query.size == 0 ||
           candidate.size == 0);
    // The candidate's weights price the unmatched slots only when it is
    // the larger set, whose vectors are the matrix rows.
    const size_t rows = candidate.size > query.size ? candidate.size : 0;
    ScratchArray<double, kInlineVectors> candidate_weights(rows);
    for (size_t i = 0; i < rows; ++i) {
      candidate_weights.data()[i] =
          Weight(GroundDistance::kEuclidean,
                 candidate.data + i * candidate.dim, candidate.dim, kOrigin);
    }
    const double bound =
        kernels_.prepared_bound(set_, candidate, candidate_weights.data());
    if (bound > prune_above) {
      if (solved != nullptr) *solved = false;
      return bound;
    }
  }
  return MinimalMatchingDistance(query, candidate, MinMatchingOptions{});
}

double VectorSetDistance(const FlatVectorSet& a, const FlatVectorSet& b,
                         double prune_above, bool* solved) {
  return PreparedQuery(a).Distance(b, prune_above, solved);
}

StatusOr<double> PartialMatchingDistance(const VectorSet& a,
                                         const VectorSet& b, int pairs) {
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (pairs < 1 || pairs > std::min(m, n)) {
    return Status::InvalidArgument(
        "pairs must be in [1, min(|a|, |b|)] for partial matching");
  }
  // Min-cost flow of exactly `pairs` units through the bipartite graph.
  MinCostFlow flow(m + n + 2);
  const int source = 0, sink = m + n + 1;
  for (int i = 0; i < m; ++i) flow.AddEdge(source, 1 + i, 1, 0.0);
  for (int j = 0; j < n; ++j) flow.AddEdge(m + 1 + j, sink, 1, 0.0);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      flow.AddEdge(1 + i, m + 1 + j, 1,
                   EuclideanDistance(a.vectors[i], b.vectors[j]));
    }
  }
  const MinCostFlow::Result result = flow.Solve(source, sink, pairs);
  if (result.flow != pairs) {
    return Status::Internal("partial matching flow did not saturate");
  }
  return result.cost;
}

}  // namespace vsim

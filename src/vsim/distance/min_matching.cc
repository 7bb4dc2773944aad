#include "vsim/distance/min_matching.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "vsim/common/math_util.h"
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

// The square m x m cost matrix of `large` (m vectors, the rows) and
// `small` (n <= m vectors): columns [0, n) hold the ground distances to
// the elements of `small`, written by one batched kernel call
// (docs/KERNELS.md), and columns [n, m) are "unmatched" slots charging
// row i's weight row_weight(i). Match and the prepared query both
// build their matrix here.
template <typename RowWeight>
void BuildCostMatrix(const kernels::KernelSet& ks, kernels::GroundKind ground,
                     const FlatVectorSet& large, const FlatVectorSet& small,
                     RowWeight row_weight, double* cost) {
  const size_t m = large.size, n = small.size;
  ks.cost_matrix_build(ground, large.data, m, small.data, n, large.dim, cost,
                       m);
  for (size_t i = 0; n < m && i < m; ++i) {
    double* row = cost + i * m;
    std::fill(row + n, row + m, row_weight(i));
  }
}

// The minimal-matching core of the option-taking forms. `large` has at
// least as many vectors (m) as `small` (n). Builds the square cost
// matrix and solves it. Returns the total before Finish(). Writes the
// solver's column per row and the identity pairing cost (the matrix
// trace: element i with element i, surplus unmatched) when asked.
double Match(const FlatVectorSet& large, const FlatVectorSet& small,
             const MinMatchingOptions& opt, int* column_of,
             double* identity_cost) {
  if (identity_cost != nullptr) *identity_cost = 0.0;
  const int m = static_cast<int>(large.size);
  if (m == 0) return 0.0;  // both sets empty
  assert(large.dim == small.dim || small.size == 0);

  const size_t dim = large.dim;
  ScratchArray<double, kInlineCostDoubles> cost_store(
      static_cast<size_t>(m) * m);
  double* cost = cost_store.data();
  BuildCostMatrix(kernels::Active(), ToKernelGround(opt.ground), large, small,
                  [&](size_t i) {
                    return Weight(opt.ground, large.data + i * dim, dim,
                                  opt.omega);
                  },
                  cost);
  if (identity_cost != nullptr) {
    for (int i = 0; i < m; ++i) {
      *identity_cost += cost[static_cast<size_t>(i) * m + i];
    }
  }
  return SolveAssignment(cost, m, m, column_of);
}

}  // namespace

// The reduction bound of a square m x m cost matrix C (m >= 1): its row
// minima r_i plus the column minima c_j = min_i (C_ij - r_i) of the
// row-reduced matrix -- the classic Hungarian method's first step.
// r_i + c_j <= C_ij, so (r, c) is a feasible dual of the assignment
// problem and, by weak duality, sum r + sum c is at most the optimum
// OPT over C in exact arithmetic. The computed value is widened for
// rounding (u = 2^-53):
//
//   - the r_i are entries of C, exact;
//   - each c_j is one rounded subtraction of non-negative values
//     (C_ij >= r_i), and rounding is monotone, so the computed c_j lies
//     within a factor (1 + u) above the exact one;
//   - the sum has 2m non-negative terms, so the computed sum S is at
//     most (1 + gamma_2m) times the exact bound, hence at most
//     (1 + gamma_2m) * OPT;
//   - SolveAssignment's total of any assignment sums m entries of C in
//     row order, so it is at least (1 - gamma_{m-1}) * OPT.
//
// S * (1 - gamma_{3m+6}), with the two roundings of that scaling,
// therefore never exceeds a solved total: a candidate ruled out because
// the bound exceeds a threshold has a solved distance above it too.
double ReductionBound(const double* cost, size_t m) {
  ScratchArray<double, kInlineAssignmentCols> col_min_store(m);
  double* col_min = col_min_store.data();
  std::fill(col_min, col_min + m, std::numeric_limits<double>::infinity());
  double sum = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double* row = cost + i * m;
    const double row_min = *std::min_element(row, row + m);
    sum += row_min;
    for (size_t j = 0; j < m; ++j) {
      col_min[j] = std::min(col_min[j], row[j] - row_min);
    }
  }
  for (size_t j = 0; j < m; ++j) sum += col_min[j];
  return sum * (1.0 - RoundingGamma(static_cast<int>(3 * m + 6)));
}

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
  const size_t m = std::max(set_.size, candidate.size);
  if (m == 0) return 0.0;  // both sets empty
  assert(set_.dim == candidate.dim || set_.size == 0 || candidate.size == 0);
  // The rows are the larger set's vectors, the query's on a tie, as in
  // MinimalMatchingDistance. The candidate's weights price the unmatched
  // slots only when its vectors are the rows.
  const bool query_rows = set_.size >= candidate.size;
  const size_t candidate_rows = query_rows ? 0 : candidate.size;
  ScratchArray<double, kInlineVectors> candidate_weights(candidate_rows);
  for (size_t i = 0; i < candidate_rows; ++i) {
    candidate_weights.data()[i] =
        Weight(GroundDistance::kEuclidean, candidate.data + i * candidate.dim,
               candidate.dim, kOrigin);
  }
  const bool prune = prune_above < kNoPrune;
  if (prune) {
    const double bound =
        kernels_.prepared_bound(set_, candidate, candidate_weights.data());
    if (bound > prune_above) {
      if (solved != nullptr) *solved = false;
      return bound;
    }
  }
  const FlatVectorSet query{set_.rows, set_.size, set_.dim};
  const double* row_weights =
      query_rows ? set_.weights : candidate_weights.data();
  ScratchArray<double, kInlineCostDoubles> cost(m * m);
  BuildCostMatrix(kernels_, kernels::GroundKind::kEuclidean,
                  query_rows ? query : candidate,
                  query_rows ? candidate : query,
                  [row_weights](size_t i) { return row_weights[i]; },
                  cost.data());
  if (prune) {
    const double bound = ReductionBound(cost.data(), m);
    if (bound > prune_above) {
      if (solved != nullptr) *solved = false;
      return bound;
    }
  }
  const int size = static_cast<int>(m);
  return SolveAssignment(cost.data(), size, size, nullptr);
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

// Minimal matching distance on vector sets (Definition 6): the cost of
// a minimum-weight perfect matching between two vector sets, where
// unmatched elements of the larger set pay a weight w(x). With w(x) =
// ||x - omega|| and a metric ground distance this is a metric (Lemma 1,
// via the netflow distance of Ramon & Bruynooghe).
#ifndef VSIM_DISTANCE_MIN_MATCHING_H_
#define VSIM_DISTANCE_MIN_MATCHING_H_

#include <limits>
#include <vector>

#include "vsim/common/scratch_array.h"
#include "vsim/common/status.h"
#include "vsim/distance/hungarian.h"
#include "vsim/features/feature_vector.h"
#include "vsim/kernels/kernels.h"

namespace vsim {

enum class GroundDistance {
  kEuclidean,         // the vector set model's choice
  kSquaredEuclidean,  // reduction for the min. Euclidean distance under
                      // permutation (Section 4.2)
  kManhattan,
};

struct MinMatchingOptions {
  GroundDistance ground = GroundDistance::kEuclidean;

  // Reference point omega of the weight function w(x) = dist(x, omega).
  // Empty means the origin -- the paper's choice: covers never have zero
  // extent, so w(x) > 0 holds and the distance stays a metric.
  FeatureVector omega;

  // Take the square root of the total (used with kSquaredEuclidean to
  // recover the minimum Euclidean distance under permutation and keep
  // the metric character, Section 4.2).
  bool sqrt_of_total = false;
};

struct MatchingDistanceResult {
  double distance = 0.0;

  // For each element of the *larger* input set (a if |a| >= |b|, else
  // b): index of its partner in the smaller set, or -1 if unmatched.
  std::vector<int> assignment;

  // True if the first input was the larger (or equal-sized) set, i.e.
  // `assignment` indexes a -> b.
  bool first_is_larger = true;

  // Cost of the order-preserving pairing (element i with element i,
  // surplus unmatched) -- what the one-vector cover sequence model
  // implicitly uses.
  double identity_cost = 0.0;

  // True if the optimal matching is strictly cheaper than the identity
  // pairing, i.e. at least one "proper permutation" was necessary
  // (the statistic of the paper's Table 1).
  bool permutation_used = false;
};

// Full result with the optimal assignment.
MatchingDistanceResult MinimalMatchingDistanceDetailed(
    const VectorSet& a, const VectorSet& b, const MinMatchingOptions& opt);

// Distance only.
double MinimalMatchingDistance(const VectorSet& a, const VectorSet& b,
                               const MinMatchingOptions& opt);

// The vector set model's distance: Euclidean ground distance, weight
// w(x) = ||x||, no square root. A metric.
double VectorSetDistance(const VectorSet& a, const VectorSet& b);

// Flat-set forms: the allocation-free core every form above runs
// through. Up to kInlineAssignmentCols vectors per set, the cost matrix
// and the Kuhn-Munkres scratch stay on the stack.
double MinimalMatchingDistance(const FlatVectorSet& a, const FlatVectorSet& b,
                               const MinMatchingOptions& opt);

inline constexpr double kNoPrune = std::numeric_limits<double>::infinity();

// The reduction bound of a square m x m assignment cost matrix (m >= 1,
// row-major): its row minima plus the column minima of the row-reduced
// matrix, a feasible assignment dual, widened by a rounding margin so
// that it never exceeds SolveAssignment's total on the same matrix (the
// argument is in min_matching.cc). PreparedQuery's second prune rung.
double ReductionBound(const double* cost, size_t m);

// The vector set model's distance from one query to many candidates: the
// query is laid out once for the kernels (kernels::PreparedSet,
// docs/KERNELS.md) with its vectors' weights, in stack scratch up to
// kInlineAssignmentCols vectors of 16 dimensions. It views the query's
// values, which must outlive it.
//
// `prune_above` lets a filter-and-refine loop skip hopeless solves. Two
// lower bounds on the distance are tried in turn, and the first one
// greater than `prune_above` is returned with *solved (if given) set to
// false:
//   1. the row-minimum bound: the sum of the cost matrix's row minima,
//      one kernel pass without building the matrix. It is summed in
//      the solver's own row order, so it never exceeds the solved
//      total.
//   2. the reduction bound: the matrix is built, and its row minima
//      plus the column minima of the row-reduced matrix -- a feasible
//      assignment dual -- are summed and widened by a rounding margin,
//      so it never exceeds the solved total either.
// A candidate whose returned value exceeds the caller's threshold thus
// never enters an answer, exactly as with the solved distance.
// Otherwise Kuhn-Munkres solves that matrix, and the result is the
// exact distance: MinimalMatchingDistance with default options, bit
// for bit.
class PreparedQuery {
 public:
  explicit PreparedQuery(const FlatVectorSet& query);
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  double Distance(const FlatVectorSet& candidate,
                  double prune_above = kNoPrune,
                  bool* solved = nullptr) const;

 private:
  static constexpr size_t kInlineVectors = kInlineAssignmentCols;
  const kernels::KernelSet& kernels_;  // kernels::Active(), resolved once
  ScratchArray<double, kInlineVectors * 16> lanes_;
  ScratchArray<double, kInlineVectors> weights_;
  kernels::PreparedSet set_;
};

// The one-shot form: PreparedQuery(a).Distance(b, prune_above, solved).
double VectorSetDistance(const FlatVectorSet& a, const FlatVectorSet& b,
                         double prune_above = kNoPrune,
                         bool* solved = nullptr);

// Partial similarity (Section 4.1): the cost of the cheapest matching
// of exactly `pairs` vector pairs between the two sets, ignoring all
// remaining vectors (no unmatched penalty). `pairs` must be at least 1
// and at most min(|a|, |b|). Useful when only a sub-shape needs to
// match, e.g. a part that contains another part.
StatusOr<double> PartialMatchingDistance(const VectorSet& a,
                                         const VectorSet& b, int pairs);

}  // namespace vsim

#endif  // VSIM_DISTANCE_MIN_MATCHING_H_

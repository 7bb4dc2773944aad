// Extended centroids and the lower-bounding filter distance of Section
// 4.3 (Definitions 7/8, Lemma 2): for vector sets X, Y with maximum
// cardinality k and reference point omega,
//
//   k * || C_{k,omega}(X) - C_{k,omega}(Y) ||_2
//     <=  dist_mm^{Eucl, w_omega}(X, Y),
//
// so the d-dimensional centroids can be indexed with any spatial index
// and used as a filter step for range and k-NN queries on the exact
// minimal matching distance.
#ifndef VSIM_DISTANCE_CENTROID_FILTER_H_
#define VSIM_DISTANCE_CENTROID_FILTER_H_

#include "vsim/features/feature_vector.h"

namespace vsim {

// C_{k,omega}(X) = (sum_i x_i + (k - |X|) * omega) / k. An empty
// `omega` means the origin. |X| must be <= k.
//
// The filter (lower-bound) distance itself -- k * ||ca - cb||_2 over
// extended centroids -- is kernels::CentroidFilterBound for one pair;
// the filter step ranks candidates through the centroid X-tree.
FeatureVector ExtendedCentroid(const VectorSet& set, int k,
                               const FeatureVector& omega = {});

// An upper bound on the Euclidean distance between
// ExtendedCentroid(set, k) with the origin as omega, as computed in
// binary64, and its exact value: gamma * (sum of the vectors' norms) /
// k, the standard error bound of the coordinate sums over at most k
// vectors, with gamma counting the roundings of evaluating the bound
// too. The query engine declares the largest one of its stored sets as
// the centroid X-tree's point error (src/vsim/index/multistep.cc
// derives the filter's rounding bound from it).
double ExtendedCentroidError(const VectorSet& set, int k);

}  // namespace vsim

#endif  // VSIM_DISTANCE_CENTROID_FILTER_H_

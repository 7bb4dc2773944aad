#include "vsim/distance/centroid_filter.h"

#include <cassert>
#include <cmath>

#include "vsim/common/math_util.h"

namespace vsim {

FeatureVector ExtendedCentroid(const VectorSet& set, int k,
                               const FeatureVector& omega) {
  assert(static_cast<int>(set.size()) <= k);
  assert(!set.empty() || !omega.empty());
  const size_t dim = set.empty() ? omega.size() : set.dim();
  FeatureVector centroid(dim, 0.0);
  for (const FeatureVector& x : set.vectors) {
    assert(x.size() == dim);
    for (size_t c = 0; c < dim; ++c) centroid[c] += x[c];
  }
  const double missing = static_cast<double>(k) - static_cast<double>(set.size());
  if (!omega.empty() && missing > 0) {
    assert(omega.size() == dim);
    for (size_t c = 0; c < dim; ++c) centroid[c] += missing * omega[c];
  }
  for (double& c : centroid) c /= static_cast<double>(k);
  return centroid;
}

double ExtendedCentroidError(const VectorSet& set, int k) {
  // Each coordinate sum of n <= k terms errs by gamma_n times the sum
  // of the terms' magnitudes, and the division adds one rounding; over
  // all coordinates that is gamma_n * sum_i ||x_i|| / k. The norms' own
  // d + n + 1 roundings and the bound's two (and one more for its
  // caller's scaling) give gamma_{2k+d+4}.
  double weight = 0.0;
  for (const FeatureVector& x : set.vectors) {
    double squares = 0.0;
    for (double c : x) squares += c * c;
    weight += std::sqrt(squares);
  }
  const int dim = set.empty() ? 0 : static_cast<int>(set.dim());
  return RoundingGamma(2 * k + dim + 4) * weight / static_cast<double>(k);
}

}  // namespace vsim

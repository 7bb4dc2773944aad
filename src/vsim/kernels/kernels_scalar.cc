// The scalar reference kernels: the semantics every optimized variant
// must reproduce. This TU is compiled with auto-vectorization disabled
// (src/CMakeLists.txt) so the scalar baselines in bench_kernels and the
// scalar-vs-SIMD equivalence tests compare against genuinely scalar
// code, not whatever the optimizer happened to vectorize.
#include <cmath>

#include "vsim/kernels/kernels_internal.h"

namespace vsim::kernels::internal {

namespace {

double GroundPair(GroundKind ground, const double* a, const double* b,
                  size_t dim) {
  double acc = 0.0;
  if (ground == GroundKind::kManhattan) {
    for (size_t d = 0; d < dim; ++d) acc += std::fabs(a[d] - b[d]);
    return acc;
  }
  for (size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    acc += diff * diff;
  }
  return ground == GroundKind::kEuclidean ? std::sqrt(acc) : acc;
}

}  // namespace

double PreparedBoundScalar(const PreparedSet& q, const FlatVectorSet& c,
                           const double* c_weights) {
  return RowMinimumBound(
      ShapeOf(q, c, c_weights), [](const double* a, const double* b,
                                   size_t dim) {
        return GroundPair(GroundKind::kSquaredEuclidean, a, b, dim);
      });
}

void CostMatrixBuildScalar(GroundKind ground, const double* a, size_t m,
                           const double* b, size_t n, size_t dim, double* out,
                           size_t out_stride) {
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * dim;
    double* row = out + i * out_stride;
    for (size_t j = 0; j < n; ++j) {
      row[j] = GroundPair(ground, ai, b + j * dim, dim);
    }
  }
}

}  // namespace vsim::kernels::internal

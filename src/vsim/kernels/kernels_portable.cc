// Portable SIMD kernels: the same loops as the scalar reference with
// `#pragma omp simd` over the inner dimension. Compiled at -O3 with
// -fopenmp-simd (no OpenMP runtime is linked; the pragma only licenses
// vectorization), so this TU lowers to whatever baseline vector ISA the
// target has -- SSE2 on stock x86-64, NEON on aarch64 -- without any
// feature detection.
#include <cmath>

#include "vsim/kernels/kernels_internal.h"

namespace vsim::kernels::internal {

namespace {

// The squared Euclidean distance of one pair, reduced over the
// dimensions under `omp simd`. The cost matrix and the prepared bound
// both run this one loop, so their sums agree bit for bit.
inline double SquaredPair(const double* a, const double* b, size_t dim) {
  double acc = 0.0;
#pragma omp simd reduction(+ : acc)
  for (size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    acc += diff * diff;
  }
  return acc;
}

}  // namespace

void CostMatrixBuildPortable(GroundKind ground, const double* a, size_t m,
                             const double* b, size_t n, size_t dim,
                             double* out, size_t out_stride) {
  for (size_t i = 0; i < m; ++i) {
    const double* ai = a + i * dim;
    double* row = out + i * out_stride;
    if (ground == GroundKind::kManhattan) {
      for (size_t j = 0; j < n; ++j) {
        const double* bj = b + j * dim;
        double acc = 0.0;
#pragma omp simd reduction(+ : acc)
        for (size_t d = 0; d < dim; ++d) acc += std::fabs(ai[d] - bj[d]);
        row[j] = acc;
      }
      continue;
    }
    for (size_t j = 0; j < n; ++j) {
      const double acc = SquaredPair(ai, b + j * dim, dim);
      row[j] = ground == GroundKind::kEuclidean ? std::sqrt(acc) : acc;
    }
  }
}

double PreparedBoundPortable(const PreparedSet& q, const FlatVectorSet& c,
                             const double* c_weights) {
  return RowMinimumBound(ShapeOf(q, c, c_weights),
                         [](const double* a, const double* b, size_t dim) {
                           return SquaredPair(a, b, dim);
                         });
}

}  // namespace vsim::kernels::internal

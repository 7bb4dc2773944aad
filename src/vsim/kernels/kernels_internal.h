// Per-variant entry points, shared between the dispatching TU
// (kernels.cc) and the three implementation TUs. Not part of the public
// kernel API: callers go through kernels.h.
#ifndef VSIM_KERNELS_KERNELS_INTERNAL_H_
#define VSIM_KERNELS_KERNELS_INTERNAL_H_

#include <cmath>
#include <limits>

#include "vsim/kernels/kernels.h"

namespace vsim::kernels::internal {

// The helpers below are shared by the variant TUs, so they are static:
// each TU compiles its own copy under its own flags, and the linker can
// never hand the scalar or portable entries a copy built with -mavx2.
// For the same reason they call no std:: algorithm template.

// The shape of the matrix the prepared bound reads (kernels.h): rows
// are the larger set's vectors -- the query's on a tie -- columns
// [0, n) the smaller set's, columns [n, m) each row's weight.
struct MatrixShape {
  const double* rows;
  const double* row_weights;
  size_t m;
  const double* cols;
  size_t n;
  size_t dim;
  bool query_rows;
};

static inline MatrixShape ShapeOf(const PreparedSet& q,
                                  const FlatVectorSet& c,
                                  const double* c_weights) {
  const size_t dim = q.size > 0 ? q.dim : c.dim;
  if (q.size >= c.size) {
    return {q.rows, q.weights, q.size, c.data, c.size, dim, true};
  }
  return {c.data, c_weights, c.size, q.rows, q.size, dim, false};
}

// The prepared bound over `s`, with `squared(a, b, dim)` the variant's
// squared ground distance of one pair (its cost_matrix_build's sum
// before the square root). The square root is monotone and correctly
// rounded, so the root of a row's smallest sum is that row's smallest
// matrix entry bit for bit; a row sums into the bound in row order.
template <typename SquaredPair>
static double RowMinimumBound(const MatrixShape& s, SquaredPair squared) {
  double bound = 0.0;
  for (size_t i = 0; i < s.m; ++i) {
    const double* row = s.rows + i * s.dim;
    double best = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < s.n; ++j) {
      const double d2 = squared(row, s.cols + j * s.dim, s.dim);
      if (d2 < best) best = d2;
    }
    best = std::sqrt(best);
    if (s.n < s.m && s.row_weights[i] < best) best = s.row_weights[i];
    bound += best;
  }
  return bound;
}

void CostMatrixBuildScalar(GroundKind ground, const double* a, size_t m,
                           const double* b, size_t n, size_t dim, double* out,
                           size_t out_stride);

void CostMatrixBuildPortable(GroundKind ground, const double* a, size_t m,
                             const double* b, size_t n, size_t dim,
                             double* out, size_t out_stride);

void CostMatrixBuildAvx2(GroundKind ground, const double* a, size_t m,
                         const double* b, size_t n, size_t dim, double* out,
                         size_t out_stride);

double PreparedBoundScalar(const PreparedSet& q, const FlatVectorSet& c,
                           const double* c_weights);

double PreparedBoundPortable(const PreparedSet& q, const FlatVectorSet& c,
                             const double* c_weights);

double PreparedBoundAvx2(const PreparedSet& q, const FlatVectorSet& c,
                         const double* c_weights);

// True when the avx2 TU was compiled from real intrinsics (the build
// had __AVX2__ for that file) rather than the portable fallback; the
// dispatcher additionally checks the CPU at runtime.
bool Avx2CompiledIn();

}  // namespace vsim::kernels::internal

#endif  // VSIM_KERNELS_KERNELS_INTERNAL_H_

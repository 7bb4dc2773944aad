// AVX2+FMA kernels. This TU is compiled with -mavx2 -mfma (see
// src/CMakeLists.txt) on x86 targets; executing it is gated by runtime
// CPU detection in kernels.cc, so binaries built here still run on
// hosts without AVX2 -- they just dispatch to the portable variant. On
// targets where the compiler does not define __AVX2__ (non-x86, or a
// build that strips the per-file flags) the whole TU degrades to
// forwarding wrappers around the portable implementation.
//
// Blocking strategy (docs/KERNELS.md):
//   cost matrix  the small (column) set is transposed once into a
//                dim-major scratch block, then each row vector of the
//                large set is broadcast one coordinate at a time
//                against four contiguous columns -- 4 ground distances
//                per dim-length FMA chain, no horizontal reductions in
//                the inner loop.
#include <cmath>

#include "vsim/kernels/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace vsim::kernels::internal {

namespace {

// Columns are processed in blocks this wide so the transposed scratch
// stays on the stack. dim is capped to keep the block small; larger
// dims (never the paper's 6) fall back to the portable kernel.
constexpr size_t kMaxDim = 16;
constexpr size_t kBlockCols = 64;

inline __m256d AbsPd(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

}  // namespace

bool Avx2CompiledIn() { return true; }

void CostMatrixBuildAvx2(GroundKind ground, const double* a, size_t m,
                         const double* b, size_t n, size_t dim, double* out,
                         size_t out_stride) {
  if (dim > kMaxDim) {
    CostMatrixBuildPortable(ground, a, m, b, n, dim, out, out_stride);
    return;
  }
  // Block width padded to a lane multiple and zero-filled, so every
  // column group -- including the tail -- runs the full 4-wide chain;
  // the tail's lanes beyond bw are discarded by a masked store (the
  // caller's out_stride pad is never written). At the paper's 7x7 this
  // turns 3 scalar remainder columns per row into one vector group.
  double scratch[kMaxDim * kBlockCols];
  for (size_t j0 = 0; j0 < n; j0 += kBlockCols) {
    const size_t bw = n - j0 < kBlockCols ? n - j0 : kBlockCols;
    const size_t bwp = (bw + 3) & ~size_t{3};
    // Transpose this block of b to dim-major: scratch[d*bwp + j] = b_j[d].
    for (size_t d = 0; d < dim; ++d) {
      double* lane = scratch + d * bwp;
      for (size_t j = 0; j < bw; ++j) lane[j] = b[(j0 + j) * dim + d];
      for (size_t j = bw; j < bwp; ++j) lane[j] = 0.0;
    }
    const size_t tail = bw & 3;
    const __m256i tail_mask = _mm256_setr_epi64x(
        tail > 0 ? -1 : 0, tail > 1 ? -1 : 0, tail > 2 ? -1 : 0, 0);
    for (size_t i = 0; i < m; ++i) {
      const double* ai = a + i * dim;
      double* row = out + i * out_stride + j0;
      for (size_t j = 0; j < bw; j += 4) {
        __m256d acc = _mm256_setzero_pd();
        if (ground == GroundKind::kManhattan) {
          for (size_t d = 0; d < dim; ++d) {
            const __m256d diff = _mm256_sub_pd(
                _mm256_set1_pd(ai[d]), _mm256_loadu_pd(scratch + d * bwp + j));
            acc = _mm256_add_pd(acc, AbsPd(diff));
          }
        } else if (dim == 6) {
          // The paper's ground space, fully unrolled: six FMAs, no
          // loop-carried counter in the hot chain.
          const double* s = scratch + j;
          __m256d diff = _mm256_sub_pd(_mm256_set1_pd(ai[0]),
                                       _mm256_loadu_pd(s));
          acc = _mm256_mul_pd(diff, diff);
          diff = _mm256_sub_pd(_mm256_set1_pd(ai[1]),
                               _mm256_loadu_pd(s + bwp));
          acc = _mm256_fmadd_pd(diff, diff, acc);
          diff = _mm256_sub_pd(_mm256_set1_pd(ai[2]),
                               _mm256_loadu_pd(s + 2 * bwp));
          acc = _mm256_fmadd_pd(diff, diff, acc);
          diff = _mm256_sub_pd(_mm256_set1_pd(ai[3]),
                               _mm256_loadu_pd(s + 3 * bwp));
          acc = _mm256_fmadd_pd(diff, diff, acc);
          diff = _mm256_sub_pd(_mm256_set1_pd(ai[4]),
                               _mm256_loadu_pd(s + 4 * bwp));
          acc = _mm256_fmadd_pd(diff, diff, acc);
          diff = _mm256_sub_pd(_mm256_set1_pd(ai[5]),
                               _mm256_loadu_pd(s + 5 * bwp));
          acc = _mm256_fmadd_pd(diff, diff, acc);
          if (ground == GroundKind::kEuclidean) acc = _mm256_sqrt_pd(acc);
        } else {
          for (size_t d = 0; d < dim; ++d) {
            const __m256d diff = _mm256_sub_pd(
                _mm256_set1_pd(ai[d]), _mm256_loadu_pd(scratch + d * bwp + j));
            acc = _mm256_fmadd_pd(diff, diff, acc);
          }
          if (ground == GroundKind::kEuclidean) acc = _mm256_sqrt_pd(acc);
        }
        if (j + 4 <= bw) {
          _mm256_storeu_pd(row + j, acc);
        } else {
          _mm256_maskstore_pd(row + j, tail_mask, acc);
        }
      }
    }
  }
}

}  // namespace vsim::kernels::internal

#else  // !(__AVX2__ && __FMA__): forward to the portable implementation.

namespace vsim::kernels::internal {

bool Avx2CompiledIn() { return false; }

void CostMatrixBuildAvx2(GroundKind ground, const double* a, size_t m,
                         const double* b, size_t n, size_t dim, double* out,
                         size_t out_stride) {
  CostMatrixBuildPortable(ground, a, m, b, n, dim, out, out_stride);
}

}  // namespace vsim::kernels::internal

#endif

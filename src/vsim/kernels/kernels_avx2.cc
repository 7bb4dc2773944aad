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
//   prepared     the query's lanes are that block, laid out once per
//   bound        query: the bound broadcasts each candidate vector
//                against four query vectors at a time, whichever set
//                the rows are.
#include <cmath>
#include <limits>

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

// Lanes [0, tail) of a 4-wide group (none for tail 0).
inline __m256i TailMask(size_t tail) {
  return _mm256_setr_epi64x(tail > 0 ? -1 : 0, tail > 1 ? -1 : 0,
                            tail > 2 ? -1 : 0, 0);
}

// Squared Euclidean distances from the vector x to the four vectors in
// lanes [0, 4) of a dim-major block whose coordinates lie `stride`
// apart: one FMA per coordinate in dimension order, no horizontal
// reduction. The cost matrix and the prepared bound share this chain,
// and x - y only flips the sign of y - x, so their sums agree bit for
// bit whichever set is broadcast. kDim is the dimension when known at
// compile time (the paper's 6, fully unrolled), else 0.
template <size_t kDim>
inline __m256d SquaredDistances4(const double* x, const double* lanes,
                                 size_t stride, size_t dim) {
  const size_t dims = kDim > 0 ? kDim : dim;
  __m256d acc = _mm256_setzero_pd();
  for (size_t d = 0; d < dims; ++d) {
    const __m256d diff = _mm256_sub_pd(_mm256_set1_pd(x[d]),
                                       _mm256_loadu_pd(lanes + d * stride));
    acc = _mm256_fmadd_pd(diff, diff, acc);
  }
  return acc;
}

// The column set is transposed in blocks of kBlockCols, so the scratch
// stays on the stack, padded to a lane multiple and zero-filled: every
// column group -- including the tail -- runs the full 4-wide chain,
// and the tail's lanes beyond bw are discarded by a masked store (the
// caller's out_stride pad is never written). At the paper's 7x7 this
// turns 3 scalar remainder columns per row into one vector group.
template <size_t kDim>
void CostMatrixBlocks(GroundKind ground, const double* a, size_t m,
                      const double* b, size_t n, size_t dim, double* out,
                      size_t out_stride) {
  double scratch[kMaxDim * kBlockCols];
  for (size_t j0 = 0; j0 < n; j0 += kBlockCols) {
    const size_t bw = n - j0 < kBlockCols ? n - j0 : kBlockCols;
    const size_t bwp = PreparedStride(bw);
    LayOutLanes(b + j0 * dim, bw, dim, scratch);
    const __m256i tail_mask = TailMask(bw & 3);
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
        } else {
          acc = SquaredDistances4<kDim>(ai, scratch + j, bwp, dim);
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

template <size_t kDim>
double PreparedBound(const PreparedSet& q, const MatrixShape& s) {
  const size_t stride = PreparedStride(q.size);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  double bound = 0.0;
  if (s.query_rows) {
    // Four query rows at a time, each candidate vector broadcast; the
    // pad rows past m are computed and dropped.
    for (size_t g = 0; g < s.m; g += 4) {
      __m256d best = inf;
      for (size_t j = 0; j < s.n; ++j) {
        best = _mm256_min_pd(best, SquaredDistances4<kDim>(
                                       s.cols + j * s.dim, q.lanes + g,
                                       stride, s.dim));
      }
      __m256d row_min = _mm256_sqrt_pd(best);
      if (s.n < s.m) {
        row_min = _mm256_min_pd(row_min, _mm256_loadu_pd(q.weights + g));
      }
      alignas(32) double mins[4];
      _mm256_store_pd(mins, row_min);
      for (size_t l = 0; l < 4 && g + l < s.m; ++l) bound += mins[l];
    }
    return bound;
  }
  // Candidate rows: each broadcast against the query's columns, whose
  // pad lanes must never be a row's minimum.
  const __m256d pad =
      _mm256_castsi256_pd(_mm256_xor_si256(TailMask(s.n & 3),
                                           _mm256_set1_epi64x(-1)));
  for (size_t i = 0; i < s.m; ++i) {
    const double* x = s.rows + i * s.dim;
    __m256d best = inf;
    for (size_t g = 0; g < s.n; g += 4) {
      __m256d d2 = SquaredDistances4<kDim>(x, q.lanes + g, stride, s.dim);
      if (g + 4 > s.n) d2 = _mm256_blendv_pd(d2, inf, pad);
      best = _mm256_min_pd(best, d2);
    }
    __m128d min2 = _mm_min_pd(_mm256_castpd256_pd128(best),
                              _mm256_extractf128_pd(best, 1));
    min2 = _mm_min_sd(min2, _mm_unpackhi_pd(min2, min2));
    const double row_min = std::sqrt(_mm_cvtsd_f64(min2));
    bound += s.row_weights[i] < row_min ? s.row_weights[i] : row_min;
  }
  return bound;
}

}  // namespace

double PreparedBoundAvx2(const PreparedSet& q, const FlatVectorSet& c,
                         const double* c_weights) {
  const MatrixShape s = ShapeOf(q, c, c_weights);
  if (s.dim > kMaxDim) return PreparedBoundPortable(q, c, c_weights);
  return s.dim == 6 ? PreparedBound<6>(q, s) : PreparedBound<0>(q, s);
}

bool Avx2CompiledIn() { return true; }

void CostMatrixBuildAvx2(GroundKind ground, const double* a, size_t m,
                         const double* b, size_t n, size_t dim, double* out,
                         size_t out_stride) {
  if (dim > kMaxDim) {
    CostMatrixBuildPortable(ground, a, m, b, n, dim, out, out_stride);
  } else if (dim == 6) {
    CostMatrixBlocks<6>(ground, a, m, b, n, dim, out, out_stride);
  } else {
    CostMatrixBlocks<0>(ground, a, m, b, n, dim, out, out_stride);
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

double PreparedBoundAvx2(const PreparedSet& q, const FlatVectorSet& c,
                         const double* c_weights) {
  return PreparedBoundPortable(q, c, c_weights);
}

}  // namespace vsim::kernels::internal

#endif

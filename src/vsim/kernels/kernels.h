// Batched distance kernels behind one dispatching API (docs/KERNELS.md).
//
// The hot distance loop of refinement -- the ground-distance block of
// the minimal matching cost matrix -- goes through a `KernelSet`: a
// table of function pointers resolved once at startup. Three
// implementations ship in separate translation units so each can carry
// its own optimization flags:
//
//   scalar    the semantics-defining reference. Compiled with
//             auto-vectorization disabled, so "scalar vs SIMD" in the
//             equivalence tests and benches means what it says.
//   portable  `#pragma omp simd` over the same loops; compiles to the
//             host's baseline vector ISA on any compiler/arch.
//   avx2      hand-blocked AVX2+FMA intrinsics (x86 only; the TU
//             degrades to the portable code when __AVX2__ is absent,
//             and runtime dispatch never selects it on hosts without
//             the feature, so the binary stays legal everywhere).
//
// Callers that compute ONE pair distance on a cold path (index node
// splits, tests' ground truths) keep using distance/lp.h directly; the
// lint rule `raw-distance-loop` (tools/vsim_lint.py) forbids per-pair
// helpers inside loops outside this directory so batched work cannot
// silently regress to scalar per-pair calls.
//
// A query refined against many candidates is laid out once as a
// `PreparedSet` (distance/min_matching.h's PreparedQuery builds it);
// the prepared bound then computes, from it and a candidate's flat
// record, the row-minimum bound of their minimal-matching cost matrix
// without building the matrix, with the same per-element arithmetic as
// the variant's cost_matrix_build.
//
// Thread-safety: resolution is a one-time atomic publication; the
// KernelSet tables are immutable. Any number of threads may call any
// kernel concurrently.
#ifndef VSIM_KERNELS_KERNELS_H_
#define VSIM_KERNELS_KERNELS_H_

#include <cstddef>

#include "vsim/features/feature_vector.h"

namespace vsim::kernels {

// Ground distance of a kernel call. Mirrors distance/min_matching.h's
// GroundDistance without depending on it: kernels sit below distance/.
enum class GroundKind {
  kEuclidean,         // L2 (with the square root)
  kSquaredEuclidean,  // L2^2
  kManhattan,         // L1
};

// The full refinement cost block: all pairwise ground distances between
// the m row vectors of `a` and the n column vectors of `b` (both
// contiguous row-major, dim doubles per vector) in one call.
// out[i*out_stride + j] = ground(a_i, b_j). `out_stride >= n` lets the
// minimal-matching builder write straight into the square Hungarian
// matrix without a copy.
using CostMatrixBuildFn = void (*)(GroundKind ground, const double* a,
                                   size_t m, const double* b, size_t n,
                                   size_t dim, double* out,
                                   size_t out_stride);

// Lane stride of a prepared set of `size` vectors: `size` rounded up to
// a multiple of 4, one AVX2 register of doubles.
constexpr size_t PreparedStride(size_t size) {
  return (size + 3) & ~size_t{3};
}

// A query vector set laid out for the prepared bound: `size` vectors
// of `dim` coordinates, row-major in `rows` and dim-major in `lanes`
// (coordinate d of vector i at lanes[d * PreparedStride(size) + i], pad
// lanes 0; LayOutLanes writes them), with each vector's unmatched cost
// w(x) in weights[0, size) (readable up to PreparedStride(size)).
struct PreparedSet {
  const double* rows = nullptr;
  const double* lanes = nullptr;
  const double* weights = nullptr;
  size_t size = 0;
  size_t dim = 0;
};

// Writes the dim-major lanes of `size` row-major vectors into
// lanes[0, dim * PreparedStride(size)).
void LayOutLanes(const double* rows, size_t size, size_t dim, double* lanes);

// The row-minimum bound of the square minimal-matching cost matrix of
// a prepared query `q` and a candidate `c` under the Euclidean ground
// distance. That matrix has m = max(q.size, c.size) rows, one per
// vector of the larger set (q's on a tie); columns [0, n) hold the
// ground distances to the smaller set's n vectors, columns [n, m) the
// row vector's weight -- q.weights, or `c_weights` (c.size values, read
// only when c is the larger set). q.dim == c.dim unless one of them is
// empty. The bound is the sum, in row order, of each row's minimum:
// one pass over the pairs, one square root per row, no matrix.
using PreparedBoundFn = double (*)(const PreparedSet& q,
                                   const FlatVectorSet& c,
                                   const double* c_weights);

struct KernelSet {
  const char* name;  // "scalar" | "portable" | "avx2"
  CostMatrixBuildFn cost_matrix_build;
  PreparedBoundFn prepared_bound;
};

// The reference implementation (always available; tests pin it to
// check the optimized variants against).
const KernelSet& ForceScalar();

// The `#pragma omp simd` implementation (always available).
const KernelSet& Portable();

// The fastest implementation this CPU can execute, by runtime feature
// detection (AVX2+FMA -> avx2, else portable). Never consults the
// environment.
const KernelSet& BestAvailable();

// Lookup by name ("scalar", "portable", "avx2"); nullptr for unknown
// names, and nullptr for "avx2" on hosts whose CPU cannot execute it.
const KernelSet* ByName(const char* name);

// The process-wide active set: BestAvailable(), unless the
// VSIM_KERNELS environment variable names an implementation
// ("scalar" | "portable" | "avx2"; see docs/OPERATIONS.md). Resolved
// once on first use; an unknown or unexecutable name falls back to
// BestAvailable().
const KernelSet& Active();

// Lemma-2 filter bound for a single centroid pair: k * ||ca - cb||_2,
// summed in dimension order like the scalar reference. Cold paths and
// tests use it; the filter step itself ranks candidates through the
// centroid X-tree (XTree::MinDistToBox), not through this helper.
double CentroidFilterBound(const FeatureVector& ca, const FeatureVector& cb,
                           double k);

}  // namespace vsim::kernels

#endif  // VSIM_KERNELS_KERNELS_H_

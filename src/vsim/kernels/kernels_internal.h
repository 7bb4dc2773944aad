// Per-variant entry points, shared between the dispatching TU
// (kernels.cc) and the three implementation TUs. Not part of the public
// kernel API: callers go through kernels.h.
#ifndef VSIM_KERNELS_KERNELS_INTERNAL_H_
#define VSIM_KERNELS_KERNELS_INTERNAL_H_

#include "vsim/kernels/kernels.h"

namespace vsim::kernels::internal {

void CostMatrixBuildScalar(GroundKind ground, const double* a, size_t m,
                           const double* b, size_t n, size_t dim, double* out,
                           size_t out_stride);

void CostMatrixBuildPortable(GroundKind ground, const double* a, size_t m,
                             const double* b, size_t n, size_t dim,
                             double* out, size_t out_stride);

void CostMatrixBuildAvx2(GroundKind ground, const double* a, size_t m,
                         const double* b, size_t n, size_t dim, double* out,
                         size_t out_stride);

// True when the avx2 TU was compiled from real intrinsics (the build
// had __AVX2__ for that file) rather than the portable fallback; the
// dispatcher additionally checks the CPU at runtime.
bool Avx2CompiledIn();

}  // namespace vsim::kernels::internal

#endif  // VSIM_KERNELS_KERNELS_INTERNAL_H_

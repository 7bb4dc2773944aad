// Kernel dispatch: resolve the fastest implementation the CPU can
// execute once, allow tests/operators to pin a variant, and provide
// the single-pair centroid filter bound.
#include "vsim/kernels/kernels.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "vsim/kernels/kernels_internal.h"

namespace vsim::kernels {

namespace {

constexpr KernelSet kScalar = {
    "scalar",
    &internal::CostMatrixBuildScalar,
    &internal::PreparedBoundScalar,
};

constexpr KernelSet kPortable = {
    "portable",
    &internal::CostMatrixBuildPortable,
    &internal::PreparedBoundPortable,
};

constexpr KernelSet kAvx2 = {
    "avx2",
    &internal::CostMatrixBuildAvx2,
    &internal::PreparedBoundAvx2,
};

bool CpuExecutesAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

}  // namespace

const KernelSet& ForceScalar() { return kScalar; }

const KernelSet& Portable() { return kPortable; }

const KernelSet& BestAvailable() {
  // The feature probe is cheap but not free; resolve once.
  static const KernelSet& best =
      internal::Avx2CompiledIn() && CpuExecutesAvx2() ? kAvx2 : kPortable;
  return best;
}

const KernelSet* ByName(const char* name) {
  if (name == nullptr) return nullptr;
  if (std::strcmp(name, "scalar") == 0) return &kScalar;
  if (std::strcmp(name, "portable") == 0) return &kPortable;
  if (std::strcmp(name, "avx2") == 0) {
    return internal::Avx2CompiledIn() && CpuExecutesAvx2() ? &kAvx2 : nullptr;
  }
  return nullptr;
}

const KernelSet& Active() {
  static const KernelSet& active = []() -> const KernelSet& {
    const KernelSet* forced = ByName(std::getenv("VSIM_KERNELS"));
    return forced != nullptr ? *forced : BestAvailable();
  }();
  return active;
}

void LayOutLanes(const double* rows, size_t size, size_t dim, double* lanes) {
  const size_t stride = PreparedStride(size);
  for (size_t d = 0; d < dim; ++d) {
    double* lane = lanes + d * stride;
    for (size_t i = 0; i < size; ++i) lane[i] = rows[i * dim + d];
    for (size_t i = size; i < stride; ++i) lane[i] = 0.0;
  }
}

double CentroidFilterBound(const FeatureVector& ca, const FeatureVector& cb,
                           double k) {
  assert(ca.size() == cb.size());
  double acc = 0.0;
  for (size_t d = 0; d < ca.size(); ++d) {
    const double diff = ca[d] - cb[d];
    acc += diff * diff;
  }
  return k * std::sqrt(acc);
}

}  // namespace vsim::kernels

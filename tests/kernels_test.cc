// The kernel API contract (docs/KERNELS.md): every variant of every
// kernel computes the same mathematical function as the scalar
// reference -- exactly on integer-representable inputs, and to tight
// relative tolerance on random doubles (the AVX2 cost-matrix kernel
// reassociates the dimension reduction, so bit-exactness is only
// guaranteed where every intermediate is exact). Plus the dispatch
// surface: ByName round-trips, and VSIM_KERNELS is honored via
// ForceScalar CTest runs.
#include "vsim/kernels/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "vsim/common/rng.h"
#include "vsim/distance/centroid_filter.h"
#include "vsim/distance/min_matching.h"

namespace vsim::kernels {
namespace {

std::vector<const KernelSet*> AllVariants() {
  std::vector<const KernelSet*> variants = {&ForceScalar(), &Portable(),
                                            &BestAvailable()};
  if (const KernelSet* avx2 = ByName("avx2")) variants.push_back(avx2);
  return variants;
}

TEST(KernelEquivalenceTest, CostMatrixExactOnIntegerGrid) {
  for (GroundKind ground : {GroundKind::kEuclidean,
                            GroundKind::kSquaredEuclidean,
                            GroundKind::kManhattan}) {
    for (size_t dim : {1u, 2u, 6u, 16u}) {
      const size_t m = 7, n = 5, stride = 7;
      std::vector<double> a(m * dim), b(n * dim);
      Rng rng(static_cast<uint64_t>(ground) * 977 + dim);
      for (double& x : a) x = static_cast<double>(rng.UniformInt(-6, 6));
      for (double& x : b) x = static_cast<double>(rng.UniformInt(-6, 6));
      std::vector<double> ref(m * stride, 0.0);
      ForceScalar().cost_matrix_build(ground, a.data(), m, b.data(), n, dim,
                                       ref.data(), stride);
      for (const KernelSet* ks : AllVariants()) {
        std::vector<double> out(m * stride, 0.0);
        ks->cost_matrix_build(ground, a.data(), m, b.data(), n, dim,
                              out.data(), stride);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            // Squared-Euclidean and Manhattan sums of small integers
            // are exact in any association; Euclidean additionally
            // takes sqrt of an exact integer, which both variants do
            // identically.
            EXPECT_EQ(out[i * stride + j], ref[i * stride + j])
                << ks->name << " ground=" << static_cast<int>(ground)
                << " dim=" << dim << " (" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, CostMatrixRandomDoublesTightRelative) {
  Rng rng(41);
  const size_t m = 7, n = 7, dim = 6, stride = 7;
  std::vector<double> a(m * dim), b(n * dim);
  for (double& x : a) x = rng.Uniform(-2, 2);
  for (double& x : b) x = rng.Uniform(-2, 2);
  for (GroundKind ground : {GroundKind::kEuclidean,
                            GroundKind::kSquaredEuclidean,
                            GroundKind::kManhattan}) {
    std::vector<double> ref(m * stride, 0.0);
    ForceScalar().cost_matrix_build(ground, a.data(), m, b.data(), n, dim,
                                     ref.data(), stride);
    for (const KernelSet* ks : AllVariants()) {
      std::vector<double> out(m * stride, 0.0);
      ks->cost_matrix_build(ground, a.data(), m, b.data(), n, dim,
                            out.data(), stride);
      for (size_t i = 0; i < m * stride; ++i) {
        EXPECT_NEAR(out[i], ref[i], 1e-12 * (1.0 + std::abs(ref[i])))
            << ks->name;
      }
    }
  }
}

TEST(KernelEquivalenceTest, CostMatrixStridePadLeftUntouched) {
  // out_stride > n: the surplus columns (min-matching dummy weights)
  // must not be written by the kernel.
  const size_t m = 3, n = 2, dim = 6, stride = 5;
  std::vector<double> a(m * dim, 1.0), b(n * dim, 2.0);
  for (const KernelSet* ks : AllVariants()) {
    std::vector<double> out(m * stride, -7.0);
    ks->cost_matrix_build(GroundKind::kEuclidean, a.data(), m, b.data(), n,
                          dim, out.data(), stride);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = n; j < stride; ++j) {
        EXPECT_EQ(out[i * stride + j], -7.0) << ks->name;
      }
    }
  }
}

TEST(KernelDispatchTest, ByNameRoundTripsAndRejectsUnknown) {
  EXPECT_STREQ(ForceScalar().name, "scalar");
  EXPECT_STREQ(Portable().name, "portable");
  EXPECT_EQ(ByName("scalar"), &ForceScalar());
  EXPECT_EQ(ByName("portable"), &Portable());
  EXPECT_EQ(ByName("no-such-kernel"), nullptr);
  EXPECT_EQ(ByName(nullptr), nullptr);
  // BestAvailable is one of the registered variants and executable on
  // this machine by construction.
  const KernelSet& best = BestAvailable();
  EXPECT_EQ(ByName(best.name), &best);
}

TEST(KernelDispatchTest, ActiveHonorsEnvironmentOverride) {
  // The CTest registration kernel_force_scalar runs this whole suite
  // with VSIM_KERNELS=scalar; in that configuration Active() must be
  // the scalar set, otherwise it must match BestAvailable().
  const char* env = std::getenv("VSIM_KERNELS");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(&Active(), &ForceScalar());
  } else if (env == nullptr) {
    EXPECT_EQ(&Active(), &BestAvailable());
  }
}

TEST(KernelFilterBoundTest, MatchesScaledCentroidDistance) {
  Rng rng(3);
  FeatureVector a(6), b(6);
  for (double& x : a) x = rng.Uniform(-1, 1);
  for (double& x : b) x = rng.Uniform(-1, 1);
  double expect = 0.0;
  for (size_t d = 0; d < 6; ++d) expect += (a[d] - b[d]) * (a[d] - b[d]);
  expect = 7.0 * std::sqrt(expect);
  EXPECT_NEAR(CentroidFilterBound(a, b, 7.0), expect, 1e-12);
}

VectorSet RandomSet(Rng& rng, int count, int dim) {
  VectorSet s;
  for (int i = 0; i < count; ++i) {
    FeatureVector v(dim);
    for (double& x : v) x = rng.Uniform(-1, 1);
    s.vectors.push_back(std::move(v));
  }
  return s;
}

// The rewired min-matching still satisfies Lemma 2 end to end: the
// kernel-built cost matrix feeds the same assignment solver, and the
// centroid filter bound must lower-bound its result -- under every
// variant, since the scalar CTest rerun forces VSIM_KERNELS.
TEST(KernelIntegrationTest, CentroidBoundStillLowerBoundsMatching) {
  Rng rng(29);
  const int k = 7;
  for (int trial = 0; trial < 25; ++trial) {
    VectorSet x = RandomSet(rng, 1 + static_cast<int>(rng.NextBounded(k)), 6);
    VectorSet y = RandomSet(rng, 1 + static_cast<int>(rng.NextBounded(k)), 6);
    MinMatchingOptions opt;
    const double exact = MinimalMatchingDistance(x, y, opt);
    const FeatureVector cx = vsim::ExtendedCentroid(x, k);
    const FeatureVector cy = vsim::ExtendedCentroid(y, k);
    const double bound = CentroidFilterBound(cx, cy, k);
    EXPECT_LE(bound, exact + 1e-9) << "trial " << trial;
  }
}

}  // namespace
}  // namespace vsim::kernels

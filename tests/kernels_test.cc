// The kernel API contract (docs/KERNELS.md): every variant of every
// kernel computes the same mathematical function as the scalar
// reference -- exactly on integer-representable inputs, and to tight
// relative tolerance on random doubles (the AVX2 cost-matrix kernel
// reassociates the dimension reduction, so bit-exactness is only
// guaranteed where every intermediate is exact) -- and each variant's
// prepared bound equals the row-minimum sum of its own
// cost_matrix_build bit for bit. Plus
// the dispatch surface: ByName round-trips, and VSIM_KERNELS is honored
// via the kernel_force_scalar and kernel_force_portable CTest runs.
#include "vsim/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "vsim/common/rng.h"
#include "vsim/distance/centroid_filter.h"
#include "vsim/distance/min_matching.h"

namespace vsim::kernels {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

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

// The prepared bound against the same variant's cost_matrix_build, bit
// for bit: the sum, in row order, of the row minima of the matrix
// (ground block plus the larger set's weight columns), for queries
// larger than, equal to and smaller than the candidate.
TEST(KernelPreparedTest, BoundEqualsOwnCostMatrixRowMinimaBitForBit) {
  Rng rng(45);
  for (const KernelSet* ks : AllVariants()) {
    for (size_t dim : {3u, 6u}) {
      for (size_t qn = 0; qn <= 24; ++qn) {
        for (size_t cn = 0; cn <= 24; ++cn) {
          std::vector<double> q(qn * dim), c(cn * dim);
          for (double& x : q) x = rng.Uniform(-2, 2);
          for (double& x : c) x = rng.Uniform(-2, 2);
          // Any weights will do: both sides read the same ones.
          std::vector<double> qw(PreparedStride(qn), 0.0), cw(cn);
          for (size_t i = 0; i < qn; ++i) qw[i] = rng.Uniform(0, 3);
          for (double& w : cw) w = rng.Uniform(0, 3);
          std::vector<double> lanes(dim * PreparedStride(qn));
          LayOutLanes(q.data(), qn, dim, lanes.data());
          const PreparedSet prepared{q.data(), lanes.data(), qw.data(), qn,
                                     dim};
          const FlatVectorSet candidate{c.data(), cn, dim};

          const bool query_rows = qn >= cn;
          const size_t m = query_rows ? qn : cn, n = query_rows ? cn : qn;
          std::vector<double> matrix(m * m);
          ks->cost_matrix_build(GroundKind::kEuclidean,
                                query_rows ? q.data() : c.data(), m,
                                query_rows ? c.data() : q.data(), n, dim,
                                matrix.data(), m);
          double expect = 0.0;
          for (size_t i = 0; i < m; ++i) {
            double* row = matrix.data() + i * m;
            std::fill(row + n, row + m, query_rows ? qw[i] : cw[i]);
            expect += *std::min_element(row, row + m);
          }
          EXPECT_EQ(Bits(ks->prepared_bound(prepared, candidate, cw.data())),
                    Bits(expect))
              << ks->name << " dim=" << dim << " |q|=" << qn << " |c|=" << cn;
        }
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
  // The CTest registrations kernel_force_scalar and
  // kernel_force_portable run this whole suite with VSIM_KERNELS set;
  // Active() must then be that set, otherwise BestAvailable().
  const char* env = std::getenv("VSIM_KERNELS");
  if (env != nullptr && std::string(env) == "scalar") {
    EXPECT_EQ(&Active(), &ForceScalar());
  } else if (env != nullptr && std::string(env) == "portable") {
    EXPECT_EQ(&Active(), &Portable());
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

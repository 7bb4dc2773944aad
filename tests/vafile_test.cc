#include "vsim/index/vafile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "vsim/common/rng.h"
#include "vsim/distance/lp.h"

namespace vsim {
namespace {

std::vector<FeatureVector> RandomPoints(Rng& rng, int count, int dim) {
  std::vector<FeatureVector> pts(count, FeatureVector(dim));
  for (auto& p : pts) {
    for (double& v : p) v = rng.Uniform(-2, 2);
  }
  return pts;
}

std::vector<int> Iota(int n) {
  std::vector<int> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(VaFileTest, RejectsBadInput) {
  VaFile va(3);
  EXPECT_FALSE(va.Build({{1, 2, 3}}, {1, 2}).ok());  // size mismatch
  EXPECT_FALSE(va.Build({{1, 2}}, {0}).ok());        // bad dim
  VaFileOptions opt;
  opt.bits_per_dim = 0;
  VaFile bad(3, opt);
  EXPECT_FALSE(bad.Build({{1, 2, 3}}, {0}).ok());
  opt.bits_per_dim = 9;
  VaFile bad2(3, opt);
  EXPECT_FALSE(bad2.Build({{1, 2, 3}}, {0}).ok());
}

TEST(VaFileTest, EmptyFile) {
  VaFile va(2);
  ASSERT_TRUE(va.Build({}, {}).ok());
  EXPECT_TRUE(va.RangeQuery({0, 0}, 1.0).empty());
  EXPECT_TRUE(va.KnnQuery({0, 0}, 3).empty());
}

class VaFileParamTest : public ::testing::TestWithParam<int> {};

TEST_P(VaFileParamTest, RangeQueryMatchesLinearScan) {
  const int bits = GetParam();
  Rng rng(100 + bits);
  const auto pts = RandomPoints(rng, 600, 5);
  VaFileOptions opt;
  opt.bits_per_dim = bits;
  VaFile va(5, opt);
  ASSERT_TRUE(va.Build(pts, Iota(600)).ok());
  for (int q = 0; q < 15; ++q) {
    FeatureVector query(5);
    for (double& v : query) v = rng.Uniform(-2, 2);
    const double eps = rng.Uniform(0.3, 1.5);
    std::vector<int> got = va.RangeQuery(query, eps);
    std::vector<int> expect;
    for (int i = 0; i < 600; ++i) {
      if (EuclideanDistance(pts[i], query) <= eps) expect.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "bits=" << bits;
  }
}

TEST_P(VaFileParamTest, KnnMatchesLinearScan) {
  const int bits = GetParam();
  Rng rng(200 + bits);
  const auto pts = RandomPoints(rng, 500, 6);
  VaFileOptions opt;
  opt.bits_per_dim = bits;
  VaFile va(6, opt);
  ASSERT_TRUE(va.Build(pts, Iota(500)).ok());
  for (int q = 0; q < 10; ++q) {
    FeatureVector query(6);
    for (double& v : query) v = rng.Uniform(-2, 2);
    const int k = 1 + static_cast<int>(rng.NextBounded(8));
    const auto got = va.KnnQuery(query, k);
    std::vector<double> expect;
    for (const auto& p : pts) expect.push_back(EuclideanDistance(p, query));
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got.size(), static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(got[i].distance, expect[i], 1e-9) << "bits=" << bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BitWidths, VaFileParamTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(VaFileTest, MoreBitsPruneMoreCandidates) {
  Rng rng(33);
  const auto pts = RandomPoints(rng, 2000, 6);
  const FeatureVector query = pts[0];
  size_t previous = pts.size() + 1;
  for (int bits : {1, 4, 8}) {
    VaFileOptions opt;
    opt.bits_per_dim = bits;
    VaFile va(6, opt);
    ASSERT_TRUE(va.Build(pts, Iota(2000)).ok());
    size_t refined = 0;
    va.KnnQuery(query, 10, nullptr, &refined);
    EXPECT_LT(refined, previous) << "bits=" << bits;
    previous = refined;
  }
  // At 8 bits the pruning must be strong.
  EXPECT_LT(previous, 400u);
}

TEST(VaFileTest, IoAccounting) {
  Rng rng(44);
  const auto pts = RandomPoints(rng, 1000, 6);
  VaFile va(6);
  ASSERT_TRUE(va.Build(pts, Iota(1000)).ok());
  // Approximation file: 6 dims x 4 bits = 3 bytes per record.
  EXPECT_EQ(va.ApproximationBytes(), 3000u);
  IoStats stats;
  size_t refined = 0;
  va.KnnQuery(pts[7], 5, &stats, &refined);
  // Sequential scan of the approximations (1 page) + one random page
  // per refined candidate.
  EXPECT_EQ(stats.page_accesses(), 1 + refined);
  EXPECT_GE(stats.bytes_read(), va.ApproximationBytes());
}

TEST(VaFileTest, DegenerateDimensionsHandled) {
  // All points share dimension 1; quantization must not divide by zero.
  VaFile va(2);
  std::vector<FeatureVector> pts = {{0.0, 5.0}, {1.0, 5.0}, {2.0, 5.0}};
  ASSERT_TRUE(va.Build(pts, {0, 1, 2}).ok());
  const auto nn = va.KnnQuery({1.9, 5.0}, 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 2);
}

TEST(VaFileTest, NonPositiveKYieldsEmptyAnswer) {
  // k <= 0 asks for nothing: an empty answer and no refinements, never
  // a read of the empty result heap.
  Rng rng(56);
  const auto pts = RandomPoints(rng, 40, 3);
  VaFile va(3);
  ASSERT_TRUE(va.Build(pts, Iota(40)).ok());
  auto exact = [&](int id, IoStats*) {
    return EuclideanDistance(pts[0], pts[id]);
  };
  for (int k : {0, -1}) {
    size_t refined = 7;
    EXPECT_TRUE(va.MultiStepKnn(pts[0], 1.0, k, exact, nullptr, &refined)
                    .empty())
        << "k=" << k;
    EXPECT_EQ(refined, 0u) << "k=" << k;
    EXPECT_TRUE(va.KnnQuery(pts[0], k).empty()) << "k=" << k;
  }
}

TEST(VaFileTest, MultiStepWithExternalDistance) {
  // Stored points act as a filter for an external exact distance that is
  // 3x the Euclidean distance: filter_scale = 3 keeps the bound valid.
  Rng rng(55);
  const auto pts = RandomPoints(rng, 300, 4);
  VaFile va(4);
  ASSERT_TRUE(va.Build(pts, Iota(300)).ok());
  const FeatureVector query = pts[11];
  auto exact = [&](int id, IoStats*) {
    return 3.0 * EuclideanDistance(query, pts[id]);
  };
  size_t refined = 0;
  const auto got = va.MultiStepKnn(query, 3.0, 5, exact, nullptr, &refined);
  ASSERT_EQ(got.size(), 5u);
  std::vector<double> expect;
  for (const auto& p : pts) expect.push_back(3.0 * EuclideanDistance(query, p));
  std::sort(expect.begin(), expect.end());
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(got[i].distance, expect[i], 1e-9);
  EXPECT_LT(refined, pts.size());

  const auto range = va.MultiStepRange(query, 3.0, 1.0, exact);
  for (int id : range) {
    EXPECT_LE(3.0 * EuclideanDistance(query, pts[id]), 1.0 + 1e-12);
  }
}

}  // namespace
}  // namespace vsim

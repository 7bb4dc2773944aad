#include "vsim/index/xtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "vsim/common/rng.h"
#include "vsim/distance/lp.h"

namespace vsim {
namespace {

std::vector<FeatureVector> RandomPoints(Rng& rng, int count, int dim,
                                        double lo = 0.0, double hi = 1.0) {
  std::vector<FeatureVector> pts(count, FeatureVector(dim));
  for (auto& p : pts) {
    for (double& v : p) v = rng.Uniform(lo, hi);
  }
  return pts;
}

std::vector<int> LinearRange(const std::vector<FeatureVector>& pts,
                             const FeatureVector& q, double eps) {
  std::vector<int> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (EuclideanDistance(pts[i], q) <= eps) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<Neighbor> LinearKnn(const std::vector<FeatureVector>& pts,
                                const FeatureVector& q, int k) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < pts.size(); ++i) {
    all.push_back({static_cast<int>(i), EuclideanDistance(pts[i], q)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  });
  all.resize(std::min<size_t>(k, all.size()));
  return all;
}

TEST(XTreeTest, EmptyTreeQueries) {
  XTree tree(3);
  EXPECT_TRUE(tree.RangeQuery({0, 0, 0}, 1.0).empty());
  EXPECT_TRUE(tree.KnnQuery({0, 0, 0}, 5).empty());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(XTreeTest, RejectsDimensionMismatch) {
  XTree tree(3);
  EXPECT_FALSE(tree.Insert({1.0, 2.0}, 0).ok());
}

TEST(XTreeTest, SinglePoint) {
  XTree tree(2);
  ASSERT_TRUE(tree.Insert({0.5, 0.5}, 7).ok());
  const auto range = tree.RangeQuery({0.5, 0.5}, 0.001);
  ASSERT_EQ(range.size(), 1u);
  EXPECT_EQ(range[0], 7);
  const auto knn = tree.KnnQuery({0, 0}, 3);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].id, 7);
}

class XTreeRandomTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(XTreeRandomTest, RangeQueryMatchesLinearScan) {
  const auto [dim, count] = GetParam();
  Rng rng(1000 + dim * 17 + count);
  const auto pts = RandomPoints(rng, count, dim);
  XTreeOptions opts;
  opts.page_size_bytes = 512;  // small pages force deep trees
  XTree tree(dim, opts);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i], static_cast<int>(i)).ok());
  }
  EXPECT_EQ(tree.size(), pts.size());
  for (int q = 0; q < 20; ++q) {
    FeatureVector query(dim);
    for (double& v : query) v = rng.Uniform(0, 1);
    const double eps = rng.Uniform(0.05, 0.5);
    std::vector<int> got = tree.RangeQuery(query, eps);
    std::vector<int> expect = LinearRange(pts, query, eps);
    std::sort(got.begin(), got.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(got, expect) << "dim=" << dim << " count=" << count;
  }
}

TEST_P(XTreeRandomTest, KnnMatchesLinearScan) {
  const auto [dim, count] = GetParam();
  Rng rng(2000 + dim * 31 + count);
  const auto pts = RandomPoints(rng, count, dim);
  XTreeOptions opts;
  opts.page_size_bytes = 512;
  XTree tree(dim, opts);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i], static_cast<int>(i)).ok());
  }
  for (int q = 0; q < 20; ++q) {
    FeatureVector query(dim);
    for (double& v : query) v = rng.Uniform(0, 1);
    const int k = 1 + static_cast<int>(rng.NextBounded(10));
    const auto got = tree.KnnQuery(query, k);
    const auto expect = LinearKnn(pts, query, k);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      // Ids may differ on exact ties; distances must agree.
      EXPECT_NEAR(got[i].distance, expect[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndSizes, XTreeRandomTest,
    ::testing::Values(std::make_tuple(2, 100), std::make_tuple(2, 1000),
                      std::make_tuple(6, 500), std::make_tuple(6, 2000),
                      std::make_tuple(16, 400), std::make_tuple(42, 300)));

TEST(XTreeTest, RankingCursorYieldsAscendingDistances) {
  Rng rng(3);
  const auto pts = RandomPoints(rng, 300, 4);
  XTree tree(4);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i], static_cast<int>(i)).ok());
  }
  const FeatureVector query = {0.5, 0.5, 0.5, 0.5};
  auto cursor = tree.Rank(query);
  double last = 0.0;
  int count = 0;
  std::set<int> seen;
  while (cursor.HasNext()) {
    EXPECT_NEAR(cursor.NextDistance(), cursor.NextDistance(), 0.0);
    const RankedEntry n = cursor.Next();
    EXPECT_GE(n.distance, last - 1e-12);
    last = n.distance;
    ASSERT_EQ(n.members.size(), 1u);
    seen.insert(n.members.front());
    ++count;
  }
  EXPECT_EQ(count, 300);
  EXPECT_EQ(seen.size(), 300u);  // every point exactly once
}

TEST(XTreeTest, DuplicatePointsAllRetrieved) {
  XTree tree(2);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree.Insert({0.5, 0.5}, i).ok());
  }
  const auto hits = tree.RangeQuery({0.5, 0.5}, 1e-9);
  EXPECT_EQ(hits.size(), 50u);
}

TEST(XTreeTest, IoStatsChargedOnQueries) {
  Rng rng(4);
  const auto pts = RandomPoints(rng, 500, 6);
  XTreeOptions opts;
  opts.page_size_bytes = 512;
  XTree tree(6, opts);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i], static_cast<int>(i)).ok());
  }
  IoStats stats;
  tree.KnnQuery({0.5, 0.5, 0.5, 0.5, 0.5, 0.5}, 10, &stats);
  EXPECT_GT(stats.page_accesses(), 0u);
  EXPECT_GT(stats.bytes_read(), 0u);
  // The k-NN search must touch far fewer pages than the whole index.
  EXPECT_LT(stats.page_accesses(), tree.total_pages());
}

TEST(XTreeTest, HighDimensionalDataCreatesSupernodes) {
  // Clustered high-dimensional points provoke high-overlap splits,
  // which the X-tree resolves with supernodes.
  Rng rng(5);
  XTreeOptions opts;
  opts.page_size_bytes = 1024;
  XTree tree(16, opts);
  int id = 0;
  for (int cluster = 0; cluster < 10; ++cluster) {
    FeatureVector center(16);
    for (double& v : center) v = rng.Uniform(0, 1);
    for (int i = 0; i < 60; ++i) {
      FeatureVector p = center;
      for (double& v : p) v += rng.Gaussian(0, 0.02);
      ASSERT_TRUE(tree.Insert(p, id++).ok());
    }
  }
  EXPECT_GT(tree.node_count(), 1u);
  // Structure stats are exposed and consistent.
  EXPECT_GE(tree.total_pages(), tree.node_count());
  EXPECT_GE(tree.height(), 1);
}

TEST(XTreeTest, StructureGrowsLogarithmically) {
  Rng rng(6);
  const auto pts = RandomPoints(rng, 4000, 3);
  XTree tree(3);
  for (size_t i = 0; i < pts.size(); ++i) {
    ASSERT_TRUE(tree.Insert(pts[i], static_cast<int>(i)).ok());
  }
  EXPECT_LE(tree.height(), 6);
  EXPECT_GE(tree.height(), 2);
}

}  // namespace
}  // namespace vsim

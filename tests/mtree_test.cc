#include "vsim/index/mtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "vsim/common/rng.h"
#include "vsim/distance/lp.h"
#include "vsim/distance/min_matching.h"

namespace vsim {
namespace {

using PointTree = MTree<FeatureVector>;

PointTree MakePointTree(size_t capacity = 8) {
  MTreeOptions opts;
  opts.node_capacity = capacity;
  return PointTree(
      [](const FeatureVector& a, const FeatureVector& b) {
        return EuclideanDistance(a, b);
      },
      opts);
}

std::vector<FeatureVector> RandomPoints(Rng& rng, int count, int dim) {
  std::vector<FeatureVector> pts(count, FeatureVector(dim));
  for (auto& p : pts) {
    for (double& v : p) v = rng.Uniform(0, 1);
  }
  return pts;
}

TEST(MTreeTest, EmptyTree) {
  PointTree tree = MakePointTree();
  EXPECT_TRUE(tree.RangeQuery({0.5, 0.5}, 10.0).empty());
  EXPECT_TRUE(tree.KnnQuery({0.5, 0.5}, 3).empty());
}

TEST(MTreeTest, RangeMatchesLinearScan) {
  Rng rng(21);
  const auto pts = RandomPoints(rng, 800, 4);
  PointTree tree = MakePointTree();
  for (size_t i = 0; i < pts.size(); ++i) {
    tree.Insert(pts[i], static_cast<int>(i));
  }
  EXPECT_EQ(tree.size(), pts.size());
  for (int q = 0; q < 20; ++q) {
    FeatureVector query(4);
    for (double& v : query) v = rng.Uniform(0, 1);
    const double eps = rng.Uniform(0.05, 0.4);
    std::vector<int> got = tree.RangeQuery(query, eps);
    std::vector<int> expect;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (EuclideanDistance(pts[i], query) <= eps) {
        expect.push_back(static_cast<int>(i));
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(MTreeTest, KnnMatchesLinearScan) {
  Rng rng(22);
  const auto pts = RandomPoints(rng, 600, 5);
  PointTree tree = MakePointTree(12);
  for (size_t i = 0; i < pts.size(); ++i) {
    tree.Insert(pts[i], static_cast<int>(i));
  }
  for (int q = 0; q < 20; ++q) {
    FeatureVector query(5);
    for (double& v : query) v = rng.Uniform(0, 1);
    const int k = 1 + static_cast<int>(rng.NextBounded(8));
    const auto got = tree.KnnQuery(query, k);
    std::vector<double> expect;
    for (const auto& p : pts) expect.push_back(EuclideanDistance(p, query));
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(got.size(), static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(got[i].distance, expect[i], 1e-9);
    }
  }
}

TEST(MTreeTest, KnnPrunesDistanceEvaluations) {
  Rng rng(23);
  const auto pts = RandomPoints(rng, 2000, 3);
  PointTree tree = MakePointTree(16);
  for (size_t i = 0; i < pts.size(); ++i) {
    tree.Insert(pts[i], static_cast<int>(i));
  }
  size_t evals = 0;
  IoStats io;
  tree.KnnQuery({0.5, 0.5, 0.5}, 5, &io, &evals);
  // Must evaluate far fewer distances than a full scan (within 2x of
  // the node entries visited).
  EXPECT_LT(evals, pts.size());
  EXPECT_GT(evals, 0u);
  EXPECT_GT(io.page_accesses(), 0u);
}

TEST(MTreeTest, WorksWithVectorSetsAndMatchingDistance) {
  Rng rng(24);
  MTreeOptions opts;
  opts.node_capacity = 8;
  MTree<VectorSet> tree(
      [](const VectorSet& a, const VectorSet& b) {
        return VectorSetDistance(a, b);
      },
      opts);
  std::vector<VectorSet> sets;
  for (int i = 0; i < 200; ++i) {
    VectorSet s;
    const int n = 1 + static_cast<int>(rng.NextBounded(5));
    for (int v = 0; v < n; ++v) {
      FeatureVector f(6);
      for (double& x : f) x = rng.Uniform(-1, 1);
      s.vectors.push_back(std::move(f));
    }
    sets.push_back(s);
    tree.Insert(std::move(s), i);
  }
  for (int q = 0; q < 5; ++q) {
    const int query = static_cast<int>(rng.NextBounded(200));
    const auto got = tree.KnnQuery(sets[query], 3);
    ASSERT_EQ(got.size(), 3u);
    // The query object itself is in the tree at distance 0.
    EXPECT_EQ(got[0].id, query);
    EXPECT_NEAR(got[0].distance, 0.0, 1e-12);
    // Verify against a scan.
    std::vector<double> by_id;
    for (const auto& s : sets) {
      by_id.push_back(VectorSetDistance(sets[query], s));
    }
    std::vector<double> all = by_id;
    std::sort(all.begin(), all.end());
    for (int i = 0; i < 3; ++i) EXPECT_NEAR(got[i].distance, all[i], 1e-9);

    // A range query against the same scan, with eps halfway between the
    // 30th and 31st smallest distances: no set lies near its boundary.
    const double eps = 0.5 * (all[29] + all[30]);
    std::vector<int> expect;
    for (int id = 0; id < static_cast<int>(sets.size()); ++id) {
      if (by_id[id] <= eps) expect.push_back(id);
    }
    ASSERT_EQ(expect.size(), 30u);
    std::vector<int> in_range = tree.RangeQuery(sets[query], eps);
    std::sort(in_range.begin(), in_range.end());
    EXPECT_EQ(in_range, expect) << "query " << query;
  }
}

TEST(MTreeDuplicatesTest, ManyCopiesOfFewSetsSplitWithinCapacity) {
  // Duplicates are equidistant from both pivots of a split; they must
  // be shared out between the two nodes, not all sent to one side.
  Rng rng(26);
  MTreeOptions opts;
  opts.node_capacity = 8;
  MTree<VectorSet> tree(
      [](const VectorSet& a, const VectorSet& b) {
        return VectorSetDistance(a, b);
      },
      opts);
  std::vector<VectorSet> distinct;
  for (int i = 0; i < 4; ++i) {
    VectorSet s;
    for (int v = 0; v < 5; ++v) {
      FeatureVector f(6);
      for (double& x : f) x = rng.Uniform(-1, 1);
      s.vectors.push_back(std::move(f));
    }
    distinct.push_back(std::move(s));
  }
  constexpr int kCopies = 100;
  std::vector<int> group_of;
  for (int copy = 0; copy < kCopies; ++copy) {
    for (int g = 0; g < static_cast<int>(distinct.size()); ++g) {
      tree.Insert(distinct[g], static_cast<int>(group_of.size()));
      group_of.push_back(g);
    }
  }
  ASSERT_TRUE(tree.Validate().ok()) << tree.Validate().ToString();
  // Every node holds at least two entries, so a tree over n objects
  // has fewer than n nodes; a chain of near-empty splits has ~n.
  EXPECT_LT(tree.node_count(), group_of.size() / 2);
  EXPECT_LE(tree.height(), 6);
  // k-NN still equals brute force: the k nearest of a copy are copies.
  const auto got = tree.KnnQuery(distinct[2], 10);
  ASSERT_EQ(got.size(), 10u);
  for (const Neighbor& n : got) {
    EXPECT_EQ(group_of[n.id], 2);
    EXPECT_EQ(n.distance, 0.0);
  }
}

TEST(MTreeTest, HeightIsLogarithmic) {
  Rng rng(25);
  const auto pts = RandomPoints(rng, 3000, 2);
  PointTree tree = MakePointTree(16);
  for (size_t i = 0; i < pts.size(); ++i) {
    tree.Insert(pts[i], static_cast<int>(i));
  }
  EXPECT_LE(tree.height(), 5);
  EXPECT_GT(tree.node_count(), 1u);
}

}  // namespace
}  // namespace vsim

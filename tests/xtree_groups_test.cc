// X-trees whose leaf entries carry member runs (BulkLoadGroups): every
// query answers in object ids, Validate checks the runs, and the file
// format (XTree::Save) refuses them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "vsim/common/rng.h"
#include "vsim/index/xtree.h"

namespace vsim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// 300 random 4-d points; point i holds ids {i} plus, for every third
// point, the extra id 1000000 + i.
struct Grouped {
  std::vector<FeatureVector> points;
  std::vector<std::vector<int>> members;
  XTree tree{4};
};

Grouped MakeGrouped() {
  Rng rng(4242);
  Grouped g;
  for (int i = 0; i < 300; ++i) {
    FeatureVector p(4);
    for (double& v : p) v = rng.Uniform(-1, 1);
    g.points.push_back(std::move(p));
    g.members.push_back(i % 3 == 0 ? std::vector<int>{i, 1000000 + i}
                                   : std::vector<int>{i});
  }
  EXPECT_TRUE(g.tree.BulkLoadGroups(g.points, g.members).ok());
  g.tree.set_point_error(1e-15);
  return g;
}

TEST(XTreeGroupsTest, QueriesAnswerInObjectIds) {
  const Grouped g = MakeGrouped();
  ASSERT_TRUE(g.tree.Validate().ok()) << g.tree.Validate().ToString();
  EXPECT_TRUE(g.tree.grouped());
  EXPECT_EQ(g.tree.entry_count(), 300u);
  EXPECT_EQ(g.tree.size(), 400u);

  const FeatureVector query = {0.1, -0.2, 0.3, 0.0};
  const double eps = 0.7;
  std::vector<int> expect;
  for (size_t i = 0; i < g.points.size(); ++i) {
    double sq = 0.0;
    for (int d = 0; d < 4; ++d) {
      sq += (g.points[i][d] - query[d]) * (g.points[i][d] - query[d]);
    }
    if (std::sqrt(sq) <= eps) {
      expect.insert(expect.end(), g.members[i].begin(), g.members[i].end());
    }
  }
  std::vector<int> got = g.tree.RangeQuery(query, eps);
  std::sort(got.begin(), got.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(got, expect);

  // k-NN: every member of an entry at its distance, ascending ids.
  const std::vector<Neighbor> knn = g.tree.KnnQuery(query, 25);
  ASSERT_EQ(knn.size(), 25u);
  auto cursor = g.tree.Rank(query);
  std::vector<Neighbor> ranked;
  while (ranked.size() < 25 && cursor.HasNext()) {
    const RankedEntry entry = cursor.Next();
    ASSERT_TRUE(std::is_sorted(entry.members.begin(), entry.members.end()));
    for (int id : entry.members) {
      if (ranked.size() < 25) ranked.push_back({id, entry.distance});
    }
  }
  EXPECT_EQ(knn, ranked);

  // Leaf order holds every id once, runs contiguous.
  std::vector<int> order = g.tree.LeafOrder();
  EXPECT_EQ(order.size(), 400u);
  std::sort(order.begin(), order.end());
  EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end());
  EXPECT_EQ(g.tree.LeafEntries().size(), 300u);
}

TEST(XTreeGroupsTest, RejectsAndCatchesBadRuns) {
  XTree tree(2);
  EXPECT_FALSE(tree.BulkLoadGroups({{0, 0}, {1, 1}}, {{0}, {}}).ok());
  EXPECT_FALSE(tree.BulkLoadGroups({{0, 0}, {1, 1}}, {{0}, {3, 2}}).ok());
  EXPECT_FALSE(tree.BulkLoadGroups({{0, 0}, {1, 1}}, {{0}, {2, 2}}).ok());
  EXPECT_FALSE(tree.BulkLoadGroups({{0, 0}}, {{0}, {1}}).ok());
  // Runs that are each fine but share an id: Validate finds it.
  XTree shared(2);
  ASSERT_TRUE(shared.BulkLoadGroups({{0, 0}, {1, 1}}, {{0, 5}, {1, 5}}).ok());
  EXPECT_FALSE(shared.Validate().ok());
}

TEST(XTreeGroupsTest, SaveRefusesGroupedTrees) {
  // Member runs alone: the file has one id per leaf entry.
  Grouped g = MakeGrouped();
  g.tree.set_point_error(0.0);
  const std::string path = TempPath("grouped.vsxt");
  std::remove(path.c_str());
  Status st = g.tree.Save(path);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_FALSE(std::ifstream(path).good());

  // Groups of one with a point error: the file has no field for it.
  XTree singles(4);
  std::vector<std::vector<int>> runs;
  for (int i = 0; i < 300; ++i) runs.push_back({i});
  ASSERT_TRUE(singles.BulkLoadGroups(g.points, runs).ok());
  singles.set_point_error(1e-15);
  st = singles.Save(path);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_FALSE(std::ifstream(path).good());

  // Exact groups of one round-trip.
  singles.set_point_error(0.0);
  ASSERT_TRUE(singles.Save(path).ok());
  StatusOr<XTree> loaded = XTree::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->LeafOrder(), singles.LeafOrder());
  const FeatureVector query = {0.5, 0.5, -0.5, 0.2};
  EXPECT_EQ(loaded->KnnQuery(query, 40), singles.KnnQuery(query, 40));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vsim

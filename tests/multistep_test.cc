#include "vsim/index/multistep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "vsim/common/rng.h"
#include "vsim/distance/centroid_filter.h"
#include "vsim/kernels/kernels.h"
#include "vsim/distance/lp.h"
#include "vsim/distance/min_matching.h"

namespace vsim {
namespace {

// Test world: random vector sets with centroids indexed in an X-tree.
struct World {
  std::vector<VectorSet> sets;
  std::vector<FeatureVector> centroids;
  std::unique_ptr<XTree> index;
  int k = 5;  // max cardinality

  ExactDistanceFn ExactFor(const VectorSet& query) const {
    return [this, &query](int id, IoStats* stats) {
      if (stats != nullptr) stats->AddPageAccesses(1);
      return VectorSetDistance(query, sets[id]);
    };
  }

  // The engine's refinement shape: the flat core with its prune (the
  // row-minimum, then the reduction bound) against the loop's
  // threshold.
  RefineFn PruningRefineFor(const VectorSet& query) const {
    return [this, &query](int id, double prune_above, IoStats* stats) {
      if (stats != nullptr) stats->AddPageAccesses(1);
      std::vector<double> q(query.size() * query.dim());
      std::vector<double> c(sets[id].size() * sets[id].dim());
      Refinement r;
      r.distance = VectorSetDistance(FlattenInto(query, q.data()),
                                     FlattenInto(sets[id], c.data()),
                                     prune_above, &r.exact);
      return r;
    };
  }
};

// The scan baselines' per-object form: every id its own group.
std::vector<std::vector<int>> Singletons(const std::vector<int>& order) {
  std::vector<std::vector<int>> groups;
  for (int id : order) groups.push_back({id});
  return groups;
}

World MakeWorld(int count, uint64_t seed) {
  Rng rng(seed);
  World w;
  w.index = std::make_unique<XTree>(4);
  for (int i = 0; i < count; ++i) {
    VectorSet s;
    const int n = 1 + static_cast<int>(rng.NextBounded(w.k));
    for (int v = 0; v < n; ++v) {
      FeatureVector f(4);
      for (double& x : f) x = rng.Uniform(-1, 1);
      s.vectors.push_back(std::move(f));
    }
    w.centroids.push_back(ExtendedCentroid(s, w.k));
    w.sets.push_back(std::move(s));
    EXPECT_TRUE(w.index->Insert(w.centroids.back(), i).ok());
  }
  return w;
}

TEST(MultiStepKnnTest, MatchesExactScan) {
  World w = MakeWorld(400, 101);
  Rng rng(5);
  for (int q = 0; q < 15; ++q) {
    const int qi = static_cast<int>(rng.NextBounded(w.sets.size()));
    const int k = 1 + static_cast<int>(rng.NextBounded(10));
    const auto got =
        MultiStepKnn(*w.index, w.centroids[qi], w.k, k, w.ExactFor(w.sets[qi]));
    // Reference: exact distances to everything.
    std::vector<double> all;
    for (const auto& s : w.sets) {
      all.push_back(VectorSetDistance(w.sets[qi], s));
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(got.size(), static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(got[i].distance, all[i], 1e-9);
    }
  }
}

TEST(MultiStepKnnTest, RefinesFewerThanScan) {
  World w = MakeWorld(600, 102);
  MultiStepStats ms;
  IoStats io;
  const auto got = MultiStepKnn(*w.index, w.centroids[0], w.k, 10,
                                w.ExactFor(w.sets[0]), &io, &ms);
  EXPECT_EQ(got.size(), 10u);
  EXPECT_LT(ms.candidates_refined, w.sets.size());
  EXPECT_GE(ms.candidates_refined, 10u);
}

TEST(MultiStepKnnTest, OptimalityNeverRefinesBeyondBound) {
  // Optimal multi-step property: every refined candidate had a filter
  // distance strictly below the final k-th exact distance (up to ties).
  World w = MakeWorld(500, 103);
  const int k = 5;
  MultiStepStats ms;
  const auto got = MultiStepKnn(*w.index, w.centroids[7], w.k, k,
                                w.ExactFor(w.sets[7]), nullptr, &ms);
  const double kth = got.back().distance;
  // Count objects whose filter bound is <= kth: the refined count can
  // not exceed that.
  size_t within_bound = 0;
  for (size_t i = 0; i < w.sets.size(); ++i) {
    const double bound =
        kernels::CentroidFilterBound(w.centroids[7], w.centroids[i], w.k);
    if (bound <= kth + 1e-9) ++within_bound;
  }
  EXPECT_LE(ms.candidates_refined, within_bound);
}

TEST(MultiStepRangeTest, MatchesExactScan) {
  World w = MakeWorld(400, 104);
  Rng rng(6);
  for (int q = 0; q < 15; ++q) {
    const int qi = static_cast<int>(rng.NextBounded(w.sets.size()));
    const double eps = rng.Uniform(0.3, 1.5);
    auto got = MultiStepRange(*w.index, w.centroids[qi], w.k, eps,
                              w.ExactFor(w.sets[qi]));
    std::vector<int> expect;
    for (size_t i = 0; i < w.sets.size(); ++i) {
      if (VectorSetDistance(w.sets[qi], w.sets[i]) <= eps) {
        expect.push_back(static_cast<int>(i));
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
  }
}

TEST(ScanBaselineTest, KnnAndRangeMatchReference) {
  World w = MakeWorld(300, 105);
  const auto exact = w.ExactFor(w.sets[3]);
  IoStats io;
  std::vector<int> order(w.sets.size());
  std::iota(order.begin(), order.end(), 0);
  const auto knn =
      ScanKnn(Singletons(order), 7, 4096 * 10, 4096, exact, &io);
  EXPECT_EQ(knn.size(), 7u);
  EXPECT_EQ(io.page_accesses(), 10u);  // sequential pages charged once
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_GE(knn[i].distance, knn[i - 1].distance);
  }
  EXPECT_EQ(knn[0].id, 3);  // self-distance zero

  IoStats io2;
  const auto range =
      ScanRange(Singletons(order), 0.5, 4096 * 10, 4096, exact, &io2);
  for (int id : range) {
    EXPECT_LE(VectorSetDistance(w.sets[3], w.sets[id]), 0.5 + 1e-12);
  }
}

TEST(ScanBaselineTest, NonPositiveKYieldsEmptyAnswer) {
  // k <= 0 asks for nothing and gets nothing, as from MultiStepKnn; a
  // negative count must never reach partial_sort or resize.
  World w = MakeWorld(50, 106);
  std::vector<int> order(w.sets.size());
  std::iota(order.begin(), order.end(), 0);
  for (int k : {0, -1}) {
    EXPECT_TRUE(
        ScanKnn(Singletons(order), k, 4096, 4096, w.ExactFor(w.sets[0]))
            .empty())
        << "k=" << k;
    EXPECT_TRUE(MultiStepKnn(*w.index, w.centroids[0], w.k, k,
                             w.ExactFor(w.sets[0]))
                    .empty())
        << "k=" << k;
  }
}

TEST(ScanBaselineTest, VisitingOrderNeverReachesTheAnswer) {
  // Coarsely quantized distances force many exact ties at the k
  // boundary: the answer must still not depend on the order in which
  // the scan visits the objects (a disk-backed scan visits them in the
  // store's page order).
  World w = MakeWorld(200, 107);
  const auto exact = w.ExactFor(w.sets[5]);
  const ExactDistanceFn tied = [&](int id, IoStats* stats) {
    return std::floor(exact(id, stats) * 2.0) / 2.0;
  };
  std::vector<int> ids(w.sets.size());
  std::iota(ids.begin(), ids.end(), 0);
  const auto knn = ScanKnn(Singletons(ids), 9, 4096, 4096, tied);
  const auto range = ScanRange(Singletons(ids), 1.0, 4096, 4096, tied);
  ASSERT_EQ(knn.size(), 9u);
  // The premise: the 10th nearest ties with the 9th.
  ASSERT_EQ(ScanKnn(Singletons(ids), 10, 4096, 4096, tied)[9].distance,
            knn[8].distance);
  ASSERT_TRUE(std::is_sorted(range.begin(), range.end()));
  std::vector<int> order = ids;
  Rng rng(108);
  for (int round = 0; round < 5; ++round) {
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBounded(i + 1)]);
    }
    EXPECT_EQ(ScanKnn(Singletons(order), 9, 4096, 4096, tied), knn);
    EXPECT_EQ(ScanRange(Singletons(order), 1.0, 4096, 4096, tied), range);
  }
}

TEST(MultiStepPruneTest, PruningRefineMatchesExactKnnAndSkipsSolves) {
  // A refine function that may return a bound above the threshold
  // leaves the answer, the filter hits and the refinement count
  // unchanged; only the exact solves drop.
  World w = MakeWorld(500, 107);
  size_t refined = 0, solves = 0;
  for (int qi = 0; qi < 60; ++qi) {
    for (int k : {1, 5, 10}) {
      MultiStepStats plain, pruned;
      IoStats plain_io, pruned_io;
      const auto expect =
          MultiStepKnn(*w.index, w.centroids[qi], w.k, k,
                       w.ExactFor(w.sets[qi]), &plain_io, &plain);
      const auto got =
          MultiStepKnn(*w.index, w.centroids[qi], w.k, k,
                       w.PruningRefineFor(w.sets[qi]), &pruned_io, &pruned);
      ASSERT_EQ(got, expect) << "query " << qi << " k " << k;
      EXPECT_EQ(pruned.filter_hits, plain.filter_hits);
      EXPECT_EQ(pruned.candidates_refined, plain.candidates_refined);
      EXPECT_EQ(plain.hungarian_invocations, plain.candidates_refined);
      EXPECT_LE(pruned.hungarian_invocations, pruned.candidates_refined);
      EXPECT_EQ(pruned_io.page_accesses(), plain_io.page_accesses());
      refined += pruned.candidates_refined;
      solves += pruned.hungarian_invocations;
    }
  }
  EXPECT_LT(solves, refined);
}

TEST(MultiStepPruneTest, PruningRefineMatchesExactRange) {
  World w = MakeWorld(400, 108);
  Rng rng(9);
  size_t refined = 0, solves = 0;
  for (int q = 0; q < 30; ++q) {
    const int qi = static_cast<int>(rng.NextBounded(w.sets.size()));
    const double eps = rng.Uniform(0.3, 1.5);
    MultiStepStats plain, pruned;
    const auto expect = MultiStepRange(*w.index, w.centroids[qi], w.k, eps,
                                       w.ExactFor(w.sets[qi]), nullptr, &plain);
    const auto got =
        MultiStepRange(*w.index, w.centroids[qi], w.k, eps,
                       w.PruningRefineFor(w.sets[qi]), nullptr, &pruned);
    EXPECT_EQ(got, expect);
    EXPECT_EQ(pruned.candidates_refined, plain.candidates_refined);
    refined += pruned.candidates_refined;
    solves += pruned.hungarian_invocations;
  }
  EXPECT_LT(solves, refined);
}

TEST(MultiStepPruneTest, NoPruningBeforeTheHeapIsFull) {
  // With k >= the collection size the heap never fills, the threshold
  // stays +infinity, and every refinement is a solve.
  World w = MakeWorld(40, 109);
  MultiStepStats ms;
  const auto got = MultiStepKnn(*w.index, w.centroids[0], w.k, 40,
                                w.PruningRefineFor(w.sets[0]), nullptr, &ms);
  EXPECT_EQ(got.size(), 40u);
  EXPECT_EQ(ms.candidates_refined, 40u);
  EXPECT_EQ(ms.hungarian_invocations, ms.candidates_refined);
}

TEST(MultiStepKnnTest, TwoVectorOrdersOfOneSetTieCanonically) {
  // One set stored twice, in two vector orders whose centroid sums
  // round differently: the query (id 5's order) is at filter distance 0
  // from itself and a rounding error away from id 2, both at exact
  // distance 0. The canonical 1-NN is id 2, so the loop must not stop
  // on that rounding error: the tree declares its points' error.
  const VectorSet a{{{0.1, 1.0}, {0.2, 1.0}, {0.3, 1.0}}};
  const VectorSet b{{{0.3, 1.0}, {0.2, 1.0}, {0.1, 1.0}}};
  const int k = 3;
  ASSERT_NE(ExtendedCentroid(a, k), ExtendedCentroid(b, k));
  std::vector<VectorSet> sets = {a, b};
  XTree tree(2);
  ASSERT_TRUE(tree.Insert(ExtendedCentroid(a, k), 5).ok());
  ASSERT_TRUE(tree.Insert(ExtendedCentroid(b, k), 2).ok());
  tree.set_point_error(
      std::max(ExtendedCentroidError(a, k), ExtendedCentroidError(b, k)));
  const ExactDistanceFn exact = [&](int id, IoStats*) {
    return VectorSetDistance(a, sets[id == 5 ? 0 : 1]);
  };
  ASSERT_EQ(exact(2, nullptr), 0.0);
  const std::vector<Neighbor> expect = {{2, 0.0}};
  EXPECT_EQ(MultiStepKnn(tree, ExtendedCentroid(a, k), k, 1, exact), expect);
  EXPECT_EQ(MultiStepRange(tree, ExtendedCentroid(a, k), k, 0.0, exact),
            std::vector<int>({2, 5}));
}

TEST(MultiStepKnnTest, KLargerThanDatabase) {
  World w = MakeWorld(5, 106);
  const auto got = MultiStepKnn(*w.index, w.centroids[0], w.k, 10,
                                w.ExactFor(w.sets[0]));
  EXPECT_EQ(got.size(), 5u);
}

}  // namespace
}  // namespace vsim

#include "vsim/distance/min_matching.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "vsim/common/rng.h"
#include "vsim/distance/lp.h"

namespace vsim {
namespace {

VectorSet RandomSet(Rng& rng, int count, int dim, double scale = 1.0) {
  VectorSet s;
  for (int i = 0; i < count; ++i) {
    FeatureVector v(dim);
    for (double& x : v) x = rng.Uniform(-scale, scale);
    s.vectors.push_back(std::move(v));
  }
  return s;
}

TEST(MinMatchingTest, IdenticalSetsHaveZeroDistance) {
  Rng rng(5);
  const VectorSet s = RandomSet(rng, 5, 6);
  EXPECT_NEAR(VectorSetDistance(s, s), 0.0, 1e-12);
}

TEST(MinMatchingTest, SymmetricInArguments) {
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const VectorSet a = RandomSet(rng, 1 + rng.NextBounded(6), 4);
    const VectorSet b = RandomSet(rng, 1 + rng.NextBounded(6), 4);
    EXPECT_NEAR(VectorSetDistance(a, b), VectorSetDistance(b, a), 1e-10);
  }
}

TEST(MinMatchingTest, TriangleInequalityHolds) {
  // Lemma 1: with Euclidean ground distance and norm weights the
  // minimal matching distance is a metric.
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const VectorSet a = RandomSet(rng, 1 + rng.NextBounded(5), 3);
    const VectorSet b = RandomSet(rng, 1 + rng.NextBounded(5), 3);
    const VectorSet c = RandomSet(rng, 1 + rng.NextBounded(5), 3);
    const double ab = VectorSetDistance(a, b);
    const double bc = VectorSetDistance(b, c);
    const double ac = VectorSetDistance(a, c);
    EXPECT_LE(ac, ab + bc + 1e-9);
  }
}

TEST(MinMatchingTest, SingletonSetsReduceToGroundDistance) {
  VectorSet a, b;
  a.vectors.push_back({1.0, 2.0});
  b.vectors.push_back({4.0, 6.0});
  EXPECT_NEAR(VectorSetDistance(a, b), 5.0, 1e-12);
}

TEST(MinMatchingTest, UnmatchedElementsPayTheirNorm) {
  VectorSet a, b;
  a.vectors.push_back({3.0, 4.0});   // matches b's single vector
  a.vectors.push_back({6.0, 8.0});   // unmatched: pays ||x|| = 10
  b.vectors.push_back({3.0, 4.0});
  EXPECT_NEAR(VectorSetDistance(a, b), 10.0, 1e-12);
}

TEST(MinMatchingTest, EmptySetCostsSumOfWeights) {
  VectorSet a, empty;
  a.vectors.push_back({3.0, 4.0});
  a.vectors.push_back({0.0, 1.0});
  EXPECT_NEAR(VectorSetDistance(a, empty), 6.0, 1e-12);
  EXPECT_NEAR(VectorSetDistance(empty, a), 6.0, 1e-12);
  EXPECT_NEAR(VectorSetDistance(empty, empty), 0.0, 1e-12);
}

TEST(MinMatchingTest, OptimalMatchingBeatsIdentityPairing) {
  // Two swapped vectors: identity pairing is expensive, the optimal
  // matching crosses.
  VectorSet a, b;
  a.vectors.push_back({0.0, 0.0});
  a.vectors.push_back({10.0, 0.0});
  b.vectors.push_back({10.0, 0.0});
  b.vectors.push_back({0.0, 0.0});
  const MatchingDistanceResult r =
      MinimalMatchingDistanceDetailed(a, b, MinMatchingOptions{});
  EXPECT_NEAR(r.distance, 0.0, 1e-12);
  EXPECT_NEAR(r.identity_cost, 20.0, 1e-12);
  EXPECT_TRUE(r.permutation_used);
  EXPECT_EQ(r.assignment[0], 1);
  EXPECT_EQ(r.assignment[1], 0);
}

TEST(MinMatchingTest, IdentityOptimalIsNotCountedAsPermutation) {
  VectorSet a, b;
  a.vectors.push_back({0.0, 0.0});
  a.vectors.push_back({10.0, 0.0});
  b.vectors.push_back({0.1, 0.0});
  b.vectors.push_back({10.1, 0.0});
  const MatchingDistanceResult r =
      MinimalMatchingDistanceDetailed(a, b, MinMatchingOptions{});
  EXPECT_FALSE(r.permutation_used);
  EXPECT_NEAR(r.distance, 0.2, 1e-12);
}

TEST(MinMatchingTest, WeightOmegaShiftsUnmatchedCost) {
  VectorSet a, b;
  a.vectors.push_back({5.0, 0.0});
  a.vectors.push_back({7.0, 0.0});
  b.vectors.push_back({5.0, 0.0});
  MinMatchingOptions opt;
  opt.omega = {7.0, 0.0};  // unmatched (7,0) now costs 0
  EXPECT_NEAR(MinimalMatchingDistance(a, b, opt), 0.0, 1e-12);
}

TEST(MinMatchingTest, ManhattanGroundDistance) {
  VectorSet a, b;
  a.vectors.push_back({0.0, 0.0});
  b.vectors.push_back({1.0, 2.0});
  MinMatchingOptions opt;
  opt.ground = GroundDistance::kManhattan;
  EXPECT_NEAR(MinimalMatchingDistance(a, b, opt), 3.0, 1e-12);
}

TEST(MinMatchingTest, DistanceNeverExceedsSumOfAllWeights) {
  // Routing everything through omega upper-bounds the matching cost
  // only when w satisfies the triangle property -- sanity check that
  // the optimum is never absurd.
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    const VectorSet a = RandomSet(rng, 1 + rng.NextBounded(6), 5);
    const VectorSet b = RandomSet(rng, 1 + rng.NextBounded(6), 5);
    double weight_sum = 0.0;
    for (const auto& v : a.vectors) weight_sum += EuclideanNorm(v);
    for (const auto& v : b.vectors) weight_sum += EuclideanNorm(v);
    EXPECT_LE(VectorSetDistance(a, b), weight_sum + 1e-9);
  }
}

TEST(MinMatchingTest, SquaredEuclideanWithSqrtObeysDefinition) {
  VectorSet a, b;
  a.vectors.push_back({0.0, 0.0});
  a.vectors.push_back({2.0, 0.0});
  b.vectors.push_back({0.0, 1.0});
  b.vectors.push_back({2.0, 1.0});
  MinMatchingOptions opt;
  opt.ground = GroundDistance::kSquaredEuclidean;
  opt.sqrt_of_total = true;
  // Optimal pairing: both pairs at squared distance 1 -> sqrt(2).
  EXPECT_NEAR(MinimalMatchingDistance(a, b, opt), std::sqrt(2.0), 1e-12);
}

// --- The flat core (also run by the kernel_force_scalar and
// kernel_force_portable CTests, so every kernel set is covered) -------

FlatVectorSet Flat(const VectorSet& set, std::vector<double>* buffer) {
  buffer->resize(set.size() * set.dim());
  return FlattenInto(set, buffer->data());
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Cardinalities covering empty sets, the paper's k = 7, unequal pairs
// and sets past the 16-vector stack capacity (heap scratch).
constexpr int kCardinalities[] = {0, 1, 3, 7, 7, 12, 16, 17, 24};

TEST(FlatMatchingTest, EqualsDetailedDistanceBitForBit) {
  Rng rng(41);
  std::vector<double> fa, fb;
  for (int ca : kCardinalities) {
    for (int cb : kCardinalities) {
      const VectorSet a = RandomSet(rng, ca, 6);
      const VectorSet b = RandomSet(rng, cb, 6);
      const double detailed =
          MinimalMatchingDistanceDetailed(a, b, MinMatchingOptions{}).distance;
      EXPECT_EQ(Bits(VectorSetDistance(Flat(a, &fa), Flat(b, &fb))),
                Bits(detailed))
          << "|a|=" << ca << " |b|=" << cb;
      EXPECT_EQ(Bits(VectorSetDistance(a, b)), Bits(detailed));
    }
  }
}

TEST(FlatMatchingTest, EveryGroundAndWeightMatchesDetailed) {
  Rng rng(42);
  std::vector<double> fa, fb;
  MinMatchingOptions manhattan;
  manhattan.ground = GroundDistance::kManhattan;
  MinMatchingOptions squared_sqrt;
  squared_sqrt.ground = GroundDistance::kSquaredEuclidean;
  squared_sqrt.sqrt_of_total = true;
  MinMatchingOptions shifted;
  shifted.omega = {0.5, -0.25, 0.0, 1.0, 0.0, 0.0};
  for (const MinMatchingOptions& opt : {manhattan, squared_sqrt, shifted}) {
    for (int trial = 0; trial < 20; ++trial) {
      const VectorSet a = RandomSet(rng, rng.NextBounded(20), 6);
      const VectorSet b = RandomSet(rng, rng.NextBounded(20), 6);
      const double detailed = MinimalMatchingDistanceDetailed(a, b, opt).distance;
      EXPECT_EQ(Bits(MinimalMatchingDistance(Flat(a, &fa), Flat(b, &fb), opt)),
                Bits(detailed));
      EXPECT_EQ(Bits(MinimalMatchingDistance(a, b, opt)), Bits(detailed));
    }
  }
}

TEST(FlatMatchingTest, RowMinimumPruneReturnsBoundAboveThreshold) {
  // With a threshold, the core either solves (and returns the exact
  // distance, bit for bit) or returns a bound that exceeds the
  // threshold without exceeding the exact distance -- so a k-NN or
  // range loop decides every candidate exactly as with the solve.
  Rng rng(43);
  std::vector<double> fa, fb;
  int pruned = 0, solved_count = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const VectorSet a = RandomSet(rng, 1 + rng.NextBounded(18), 6);
    const VectorSet b = RandomSet(rng, 1 + rng.NextBounded(18), 6);
    const FlatVectorSet va = Flat(a, &fa), vb = Flat(b, &fb);
    const double exact = VectorSetDistance(va, vb);
    for (double scale : {0.25, 0.5, 0.9, 1.0, 2.0}) {
      const double threshold = exact * scale;
      bool solved = false;
      const double got = VectorSetDistance(va, vb, threshold, &solved);
      if (solved) {
        ++solved_count;
        EXPECT_EQ(Bits(got), Bits(exact));
      } else {
        ++pruned;
        EXPECT_GT(got, threshold);
        EXPECT_LE(got, exact);
        EXPECT_LT(scale, 1.0) << "pruned at a threshold >= the distance";
      }
    }
  }
  EXPECT_GT(pruned, 0);
  EXPECT_GT(solved_count, 0);
}

TEST(FlatMatchingTest, EmptySetsNeverPrune) {
  std::vector<double> fa, fb;
  const VectorSet empty;
  bool solved = false;
  EXPECT_EQ(VectorSetDistance(Flat(empty, &fa), Flat(empty, &fb), -1.0,
                              &solved),
            0.0);
  EXPECT_TRUE(solved);
  Rng rng(44);
  const VectorSet a = RandomSet(rng, 4, 6);
  double weights = 0.0;
  for (const FeatureVector& v : a.vectors) weights += EuclideanNorm(v);
  EXPECT_EQ(Bits(VectorSetDistance(Flat(a, &fa), Flat(empty, &fb))),
            Bits(weights));
}

}  // namespace
}  // namespace vsim

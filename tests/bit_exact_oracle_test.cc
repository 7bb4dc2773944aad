// The bit-exact differential oracle: on a duplicate-heavy AircraftLike
// corpus, every id's 10-NN and range answer (eps = the 10th distance)
// from the filter and scan strategies must equal a brute-force
// per-object scan -- ids and distances, bit for bit, ties ranked by
// (distance, id), range ids ascending. It covers RAM-resident and
// disk-backed engines, each with one entry per distinct vector set
// and with groups of one. A grouped answer gives every member the
// distance of the group's first record; the last case pins two objects
// that hold one set in different vector orders, whose distances from a
// smaller query differ in the last bit, to their own distances. A
// last suite checks the prepared refinement path on every pair of the
// corpus against the unpruned solve and its two prune bounds.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "vsim/common/math_util.h"
#include "vsim/common/rng.h"
#include "vsim/core/query_engine.h"
#include "vsim/data/dataset.h"
#include "vsim/distance/centroid_filter.h"
#include "vsim/distance/lp.h"
#include "vsim/distance/min_matching.h"
#include "vsim/kernels/kernels.h"
#include "vsim/service/db_snapshot.h"
#include "vsim/storage/vector_set_store.h"

namespace vsim {
namespace {

constexpr int kObjects = 600;
constexpr int kK = 10;

// What brute force answers for a query whose every (distance, id) pair
// is `ranking`, in that order: the k-NN answer, and the range answer at
// eps = its k-th distance.
struct Expected {
  std::vector<Neighbor> knn;
  double eps = 0.0;
  std::vector<int> range;
};

void SortByDistanceThenId(std::vector<Neighbor>* ranking) {
  std::sort(ranking->begin(), ranking->end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.id < b.id);
            });
}

Expected Expect(const std::vector<Neighbor>& ranking, int k) {
  Expected e;
  e.knn.assign(ranking.begin(), ranking.begin() + k);
  e.eps = e.knn.back().distance;
  for (const Neighbor& n : ranking) {
    if (n.distance <= e.eps) e.range.push_back(n.id);
  }
  std::sort(e.range.begin(), e.range.end());
  return e;
}

constexpr QueryStrategy kStrategies[] = {QueryStrategy::kVectorSetFilter,
                                         QueryStrategy::kVectorSetScan};

// A store file path private to this process: ctest runs this suite in
// its own entries, kernel_force_scalar and kernel_force_portable at the
// same time.
std::string StorePath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

// True if `a` and `b` hold the same vectors in different orders.
bool SameSetOtherOrder(const VectorSet& a, const VectorSet& b) {
  if (a.vectors == b.vectors) return false;
  std::vector<FeatureVector> x = a.vectors, y = b.vectors;
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

// The oracle's corpus, built once per process for both suites below
// (and never freed: the suites share it until exit).
const CadDatabase* OracleCorpus() {
  static const CadDatabase* corpus = []() -> const CadDatabase* {
    ExtractionOptions opt;
    opt.extract_histograms = false;
    StatusOr<CadDatabase> db =
        CadDatabase::FromDataset(MakeAircraftDataset(kObjects, 7), opt, 2);
    if (!db.ok()) {
      ADD_FAILURE() << db.status().ToString();
      return nullptr;
    }
    return new CadDatabase(std::move(*db));
  }();
  return corpus;
}

class BitExactOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    oracle_ = OracleCorpus();
    ASSERT_NE(oracle_, nullptr);
    distances_ = new std::vector<double>(kObjects * kObjects);
    for (int q = 0; q < kObjects; ++q) {
      for (int c = 0; c < kObjects; ++c) {
        (*distances_)[q * kObjects + c] = VectorSetDistance(
            oracle_->object(q).vector_set, oracle_->object(c).vector_set);
      }
    }
  }
  static void TearDownTestSuite() {
    delete distances_;
    distances_ = nullptr;
    oracle_ = nullptr;
  }

  // Every id of the corpus in (distance, id) order from object `query`.
  static std::vector<Neighbor> Ranking(int query) {
    std::vector<Neighbor> all;
    for (int id = 0; id < kObjects; ++id) {
      all.push_back({id, (*distances_)[query * kObjects + id]});
    }
    SortByDistanceThenId(&all);
    return all;
  }

  // Checks every id's answers on `engine` against brute force.
  static void CheckEveryId(const QueryEngine& engine) {
    for (int id = 0; id < kObjects; ++id) {
      const Expected e = Expect(Ranking(id), kK);
      for (QueryStrategy strategy : kStrategies) {
        QueryCost cost;
        // The stored-id overload: a disk engine whose RAM sets were
        // released reads the query's set back from its store.
        EXPECT_EQ(engine.Knn(strategy, id, kK, &cost), e.knn)
            << QueryStrategyName(strategy) << " k-NN of id " << id;
        EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
        EXPECT_EQ(engine.Range(strategy, oracle_->object(id), e.eps, &cost),
                  e.range)
            << QueryStrategyName(strategy) << " range of id " << id;
        EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
      }
    }
  }

  // The disk snapshot DbSnapshot::CreateDiskBacked builds: one entry
  // per distinct set, its RAM sets released. The store file is
  // unlinked at once; the store keeps it open.
  static std::shared_ptr<const DbSnapshot> DiskSnapshot() {
    const std::string path = StorePath("bit_exact_grouped.vspg");
    StatusOr<std::shared_ptr<const DbSnapshot>> disk =
        DbSnapshot::CreateDiskBacked(*oracle_, path, 1, IoCostParams{}, 16);
    std::remove(path.c_str());
    EXPECT_TRUE(disk.ok()) << disk.status().ToString();
    return disk.ok() ? *disk : nullptr;
  }

  static const CadDatabase* oracle_;
  static std::vector<double>* distances_;  // [query * kObjects + id]
};

const CadDatabase* BitExactOracleTest::oracle_ = nullptr;
std::vector<double>* BitExactOracleTest::distances_ = nullptr;

TEST_F(BitExactOracleTest, RamGrouped) {
  CheckEveryId(QueryEngine(oracle_));
}

TEST_F(BitExactOracleTest, RamPerObject) {
  CheckEveryId(QueryEngine(oracle_, {}, SetGrouping::kNone));
}

TEST_F(BitExactOracleTest, DiskGrouped) {
  const std::shared_ptr<const DbSnapshot> disk = DiskSnapshot();
  ASSERT_NE(disk, nullptr);
  ASSERT_TRUE(disk->db().object(0).vector_set.empty());
  CheckEveryId(disk->engine());
}

TEST_F(BitExactOracleTest, DiskPerObject) {
  // Groups of one over the store layout CreateDiskBacked writes, with
  // the RAM sets released after the engine build as it does.
  CadDatabase db = *oracle_;
  QueryEngine engine(&db, {}, SetGrouping::kNone);
  const std::string path = StorePath("bit_exact_per_object.vspg");
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 4096, 16);
  std::remove(path.c_str());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int id : engine.StoreRecordOrder()) {
    ASSERT_TRUE(store->Append(id, db.object(id).vector_set).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  engine.AttachStore(&*store);
  db.ReleaseVectorSets();
  CheckEveryId(engine);
}

TEST_F(BitExactOracleTest, TwoVectorOrdersOfOneSetKeepTheirOwnDistances) {
  // Two objects holding one set of at least three vectors in different
  // orders: the matching sums its costs in the larger set's order, so
  // from a smaller query the two can differ in the last bit.
  int a = -1, b = -1;
  for (int i = 0; i < kObjects && a < 0; ++i) {
    const VectorSet& x = oracle_->object(i).vector_set;
    for (int j = i + 1; j < kObjects && x.size() >= 3; ++j) {
      if (SameSetOtherOrder(x, oracle_->object(j).vector_set)) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_GE(a, 0) << "the corpus holds no set in two vector orders";

  // A one-vector query, near a vector of the set, whose distances to
  // the two objects differ.
  const VectorSet& set = oracle_->object(a).vector_set;
  ObjectRepr query;
  Rng rng(16);
  for (int trial = 0; trial < 1000; ++trial) {
    FeatureVector v = set.vectors[trial % set.size()];
    for (double& c : v) c *= rng.Uniform(0.5, 1.5);
    VectorSet q;
    q.vectors.push_back(std::move(v));
    if (VectorSetDistance(q, set) !=
        VectorSetDistance(q, oracle_->object(b).vector_set)) {
      query.vector_set = std::move(q);
      break;
    }
  }
  ASSERT_FALSE(query.vector_set.empty())
      << "no query separates objects " << a << " and " << b;
  query.centroid =
      ExtendedCentroid(query.vector_set, oracle_->options().num_covers);

  std::vector<Neighbor> ranking;
  for (int id = 0; id < kObjects; ++id) {
    const VectorSet& set_id = oracle_->object(id).vector_set;
    ranking.push_back({id, VectorSetDistance(query.vector_set, set_id)});
  }
  SortByDistanceThenId(&ranking);
  // The shortest k-NN answer that holds both objects.
  int k = 0;
  for (int seen = 0; seen < 2; ++k) {
    if (ranking[k].id == a || ranking[k].id == b) ++seen;
  }
  const Expected e = Expect(ranking, k);

  const std::shared_ptr<const DbSnapshot> disk = DiskSnapshot();
  ASSERT_NE(disk, nullptr);
  const QueryEngine ram(oracle_);
  for (const QueryEngine* engine : {&ram, &disk->engine()}) {
    for (QueryStrategy strategy : kStrategies) {
      QueryCost cost;
      EXPECT_EQ(engine->Knn(strategy, query, k, &cost), e.knn)
          << QueryStrategyName(strategy);
      EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
      EXPECT_EQ(engine->Range(strategy, query, e.eps, &cost), e.range)
          << QueryStrategyName(strategy);
      EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
    }
  }
}

// The prepared refinement path (PreparedQuery, as every engine strategy
// refines) on every (query, candidate) pair of the oracle's corpus,
// against a test-side model of its prune ladder over the matrix the
// unpruned MinimalMatchingDistanceDetailed solves (the active kernels'
// cost_matrix_build plus the weight columns):
//   1. the row-minimum bound -- each row's minimum, summed in row
//      order -- when it exceeds the threshold;
//   2. else the reduction bound -- those row minima, then the column
//      minima of the row-reduced matrix in column order, summed on and
//      scaled by (1 - gamma_{3m+6}) -- when it exceeds the threshold;
//   3. else the solved distance, with `solved`.
// Each pair is probed at thresholds +inf, the distance, the reduction
// bound and the next double below each of the last two: at the bound
// itself the comparison is strict, so the candidate is solved, and
// below it the reduction rung decides unless the row-minimum rung
// already did. Both bounds must also lie at or below the distance.
// Registered under kernel_force_scalar and kernel_force_portable too,
// so every variant's prune is checked.
TEST(FlatMatchingOracleTest, PreparedPathMatchesDetailedOnEveryPair) {
  const CadDatabase* corpus = OracleCorpus();
  ASSERT_NE(corpus, nullptr);
  std::vector<std::vector<double>> values(kObjects);
  std::vector<FlatVectorSet> sets(kObjects);
  std::vector<std::vector<double>> weights(kObjects);
  for (int id = 0; id < kObjects; ++id) {
    const VectorSet& set = corpus->object(id).vector_set;
    values[id].resize(set.size() * set.dim());
    sets[id] = FlattenInto(set, values[id].data());
    for (const FeatureVector& v : set.vectors) {
      weights[id].push_back(EuclideanNorm(v));
    }
  }
  struct Bounds {
    double row_minimum = 0.0;
    double reduction = 0.0;
  };
  std::vector<double> cost, col_min;
  auto bounds_of = [&](int q, int c) {
    const bool q_rows = sets[q].size >= sets[c].size;
    const FlatVectorSet& large = sets[q_rows ? q : c];
    const FlatVectorSet& small = sets[q_rows ? c : q];
    const size_t m = large.size, n = small.size;
    cost.assign(m * m, 0.0);
    kernels::Active().cost_matrix_build(kernels::GroundKind::kEuclidean,
                                        large.data, m, small.data, n,
                                        large.dim, cost.data(), m);
    col_min.assign(m, std::numeric_limits<double>::infinity());
    Bounds b;
    for (size_t i = 0; i < m; ++i) {
      double* row = cost.data() + i * m;
      std::fill(row + n, row + m, weights[q_rows ? q : c][i]);
      const double row_min = *std::min_element(row, row + m);
      b.row_minimum += row_min;
      for (size_t j = 0; j < m; ++j) {
        col_min[j] = std::min(col_min[j], row[j] - row_min);
      }
    }
    double sum = b.row_minimum;
    for (double c_j : col_min) sum += c_j;
    b.reduction = sum * (1.0 - RoundingGamma(static_cast<int>(3 * m + 6)));
    return b;
  };
  // decided[t][rung]: pairs that threshold t's probe left to each rung.
  constexpr const char* kThresholds[] = {"+inf", "distance",
                                         "below distance", "reduction",
                                         "below reduction"};
  constexpr const char* kRungs[] = {"row-minimum", "reduction", "solved"};
  size_t decided[5][3] = {};
  int mismatches = 0;
  for (int q = 0; q < kObjects && mismatches < 10; ++q) {
    const PreparedQuery prepared(sets[q]);
    for (int c = 0; c < kObjects; ++c) {
      const double exact = MinimalMatchingDistanceDetailed(
                               corpus->object(q).vector_set,
                               corpus->object(c).vector_set, {})
                               .distance;
      const Bounds b = bounds_of(q, c);
      if (!(b.row_minimum <= exact && b.reduction <= exact)) {
        ADD_FAILURE() << "query " << q << " candidate " << c
                      << ": a bound above the distance " << exact
                      << " (row minimum " << b.row_minimum << ", reduction "
                      << b.reduction << ")";
        ++mismatches;
      }
      const double thresholds[] = {kNoPrune, exact,
                                   std::nextafter(exact, 0.0), b.reduction,
                                   std::nextafter(b.reduction, 0.0)};
      for (int t = 0; t < 5; ++t) {
        const double threshold = thresholds[t];
        const int rung = b.row_minimum > threshold ? 0
                         : b.reduction > threshold ? 1
                                                   : 2;
        const double expect = rung == 0   ? b.row_minimum
                              : rung == 1 ? b.reduction
                                          : exact;
        bool solved = false;
        const double got = prepared.Distance(sets[c], threshold, &solved);
        if (solved != (rung == 2) ||
            std::bit_cast<uint64_t>(got) != std::bit_cast<uint64_t>(expect)) {
          ADD_FAILURE() << "query " << q << " candidate " << c
                        << " threshold " << threshold << ": got " << got
                        << (solved ? " solved" : " pruned") << ", expected "
                        << expect << " from the " << kRungs[rung] << " rung";
          ++mismatches;
        }
        ++decided[t][rung];
      }
    }
  }
  for (int t = 0; t < 5; ++t) {
    std::printf("threshold %-15s row-minimum %6zu  reduction %6zu  "
                "solved %6zu\n",
                kThresholds[t], decided[t][0], decided[t][1], decided[t][2]);
  }
  // Every rung decides real pairs: a row-minimum bound equal to the
  // distance prunes just below it, and the reduction bound prunes
  // candidates the row minima left to the solve.
  EXPECT_GT(decided[2][0], 0u);
  EXPECT_GT(decided[4][1], 0u);
  EXPECT_GT(decided[3][2], 0u);
}

}  // namespace
}  // namespace vsim

#include "vsim/core/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "vsim/data/dataset.h"
#include "vsim/distance/lp.h"
#include "vsim/distance/min_matching.h"

namespace vsim {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExtractionOptions opt;
    opt.extract_histograms = false;
    opt.cover_resolution = 12;
    opt.num_covers = 5;
    const Dataset ds = MakeAircraftDataset(150, 11);
    StatusOr<CadDatabase> db = CadDatabase::FromDataset(ds, opt);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = new CadDatabase(std::move(db).value());
    engine_ = new QueryEngine(db_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete db_;
  }
  static CadDatabase* db_;
  static QueryEngine* engine_;
};

CadDatabase* QueryEngineTest::db_ = nullptr;
QueryEngine* QueryEngineTest::engine_ = nullptr;

std::vector<Neighbor> BruteForceKnn(const CadDatabase& db, int query, int k) {
  std::vector<Neighbor> all;
  for (int i = 0; i < static_cast<int>(db.size()); ++i) {
    all.push_back({i, db.Distance(ModelType::kVectorSet, query, i)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.distance < b.distance;
  });
  all.resize(k);
  return all;
}

TEST_F(QueryEngineTest, AllVectorSetStrategiesAgree) {
  for (int query : {0, 17, 42, 99}) {
    const auto expect = BruteForceKnn(*db_, query, 10);
    for (QueryStrategy strategy :
         {QueryStrategy::kVectorSetFilter, QueryStrategy::kVectorSetScan,
          QueryStrategy::kVectorSetMTree}) {
      const auto got = engine_->Knn(strategy, query, 10);
      ASSERT_EQ(got.size(), 10u) << QueryStrategyName(strategy);
      for (int i = 0; i < 10; ++i) {
        EXPECT_NEAR(got[i].distance, expect[i].distance, 1e-9)
            << QueryStrategyName(strategy) << " query " << query;
      }
    }
  }
}

TEST_F(QueryEngineTest, OneVectorStrategyMatchesEuclideanScan) {
  const int query = 23;
  const auto got = engine_->Knn(QueryStrategy::kOneVectorXTree, query, 5);
  std::vector<double> expect;
  for (int i = 0; i < static_cast<int>(db_->size()); ++i) {
    expect.push_back(db_->Distance(ModelType::kCoverSequence, query, i));
  }
  std::sort(expect.begin(), expect.end());
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(got[i].distance, expect[i], 1e-9);
  }
}

TEST_F(QueryEngineTest, FilterRefinesFewerCandidatesThanScan) {
  QueryCost filter_cost, scan_cost;
  engine_->Knn(QueryStrategy::kVectorSetFilter, 3, 10, &filter_cost);
  engine_->Knn(QueryStrategy::kVectorSetScan, 3, 10, &scan_cost);
  EXPECT_LT(filter_cost.candidates_refined, scan_cost.candidates_refined);
  // The scan refines each distinct vector sequence once; the
  // per-object engine refines every object.
  std::set<std::vector<FeatureVector>> distinct;
  for (int id = 0; id < static_cast<int>(db_->size()); ++id) {
    distinct.insert(db_->object(id).vector_set.vectors);
  }
  EXPECT_EQ(scan_cost.candidates_refined, distinct.size());
  const QueryEngine per_object(db_, {}, SetGrouping::kNone);
  per_object.Knn(QueryStrategy::kVectorSetScan, 3, 10, &scan_cost);
  EXPECT_EQ(scan_cost.candidates_refined, db_->size());
}

TEST_F(QueryEngineTest, CostAccountingIsPopulated) {
  QueryCost cost;
  engine_->Knn(QueryStrategy::kVectorSetFilter, 5, 10, &cost);
  EXPECT_GT(cost.io.page_accesses(), 0u);
  EXPECT_GT(cost.io.bytes_read(), 0u);
  EXPECT_GE(cost.cpu_seconds, 0.0);
  EXPECT_GT(cost.TotalSeconds(), 0.0);
  EXPECT_GT(cost.IoSeconds(), 0.0);
}

TEST_F(QueryEngineTest, RangeQueriesAgreeAcrossStrategies) {
  const ObjectRepr& query = db_->object(31);
  // Pick an eps that catches some but not all objects.
  QueryCost c;
  auto scan = engine_->Range(QueryStrategy::kVectorSetScan, query, 0.4, &c);
  auto filter = engine_->Range(QueryStrategy::kVectorSetFilter, query, 0.4, &c);
  auto mtree = engine_->Range(QueryStrategy::kVectorSetMTree, query, 0.4, &c);
  std::sort(scan.begin(), scan.end());
  std::sort(filter.begin(), filter.end());
  std::sort(mtree.begin(), mtree.end());
  EXPECT_EQ(scan, filter);
  EXPECT_EQ(scan, mtree);
  EXPECT_FALSE(scan.empty());  // the query object itself qualifies
  EXPECT_LT(scan.size(), db_->size());
}

TEST_F(QueryEngineTest, ExternalQueryObjectWorks) {
  // Query with an object not in the database.
  ExtractionOptions opt = db_->options();
  const Dataset extra = MakeAircraftDataset(3, 77);
  StatusOr<ObjectRepr> repr = ExtractObject(extra.objects[0].parts, opt);
  ASSERT_TRUE(repr.ok());
  const auto got = engine_->Knn(QueryStrategy::kVectorSetFilter, *repr, 5);
  ASSERT_EQ(got.size(), 5u);
  // Verify against a scan with the same query.
  std::vector<double> expect;
  for (int i = 0; i < static_cast<int>(db_->size()); ++i) {
    expect.push_back(
        VectorSetDistance(repr->vector_set, db_->object(i).vector_set));
  }
  std::sort(expect.begin(), expect.end());
  for (int i = 0; i < 5; ++i) EXPECT_NEAR(got[i].distance, expect[i], 1e-9);
}

TEST_F(QueryEngineTest, KnnJoinMatchesPerObjectQueries) {
  QueryCost cost;
  const auto join = engine_->KnnJoin(QueryStrategy::kVectorSetFilter, 3, &cost);
  ASSERT_EQ(join.size(), db_->size());
  EXPECT_GT(cost.candidates_refined, 0u);
  for (int id : {0, 9, 77, 149}) {
    ASSERT_EQ(join[id].size(), 3u);
    // No self matches.
    for (const Neighbor& n : join[id]) EXPECT_NE(n.id, id);
    // Distances agree with a brute-force scan that skips the object.
    std::vector<double> expect;
    for (int j = 0; j < static_cast<int>(db_->size()); ++j) {
      if (j != id) expect.push_back(db_->Distance(ModelType::kVectorSet, id, j));
    }
    std::sort(expect.begin(), expect.end());
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(join[id][i].distance, expect[i], 1e-9) << id;
    }
  }
}

TEST_F(QueryEngineTest, StrategyNamesAreStable) {
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kOneVectorXTree),
               "1-vector X-tree");
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kVectorSetFilter),
               "vector set + filter");
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kVectorSetScan),
               "vector set seq. scan");
}

}  // namespace
}  // namespace vsim

// The engine's refinement (flat decode + the prepared query's prune,
// one closure for every strategy) must be invisible in the answers: on
// the filter strategy, QueryEngine::Knn and Range return exactly what
// the plain multi-step loops return with an unpruned VectorSetDistance,
// with the same filter hits and refinement counts, for every id of a
// duplicate-heavy AircraftLike corpus, on a RAM-resident and on a
// disk-backed snapshot. Only the Kuhn-Munkres solve count may drop.
//
// The disk snapshot's store is laid out in the centroid X-tree's leaf
// order; the layout tests pin what that buys (a 16-page pool,
// single-threaded, so the miss counts are deterministic) and that the
// scan, which visits the store in page order, still answers exactly as
// on the RAM snapshot.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "vsim/core/query_engine.h"
#include "vsim/data/dataset.h"
#include "vsim/distance/min_matching.h"
#include "vsim/index/multistep.h"
#include "vsim/service/db_snapshot.h"

namespace vsim {
namespace {

constexpr int kObjects = 600;
constexpr int kK = 10;

class RefinementEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExtractionOptions opt;
    opt.extract_histograms = false;
    StatusOr<CadDatabase> db =
        CadDatabase::FromDataset(MakeAircraftDataset(kObjects, 7), opt, 2);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    oracle_ = new CadDatabase(*db);
    ram_ = new std::shared_ptr<const DbSnapshot>(
        DbSnapshot::Create(std::move(*db), 1));
  }
  static void TearDownTestSuite() {
    delete ram_;
    ram_ = nullptr;
    delete oracle_;
    oracle_ = nullptr;
  }

  // Every id's k-NN and range answer from `snap` against the plain
  // loops over the oracle's RAM sets; returns the summed counters.
  static QueryCost CheckEveryId(const DbSnapshot& snap) {
    const QueryEngine& engine = snap.engine();
    const double scale = static_cast<double>(oracle_->options().num_covers);
    QueryCost total;
    for (int id = 0; id < kObjects; ++id) {
      const ObjectRepr& query = oracle_->object(id);
      const ExactDistanceFn plain = [&](int candidate, IoStats*) {
        return VectorSetDistance(query.vector_set,
                                 oracle_->object(candidate).vector_set);
      };
      MultiStepStats ms;
      const std::vector<Neighbor> expect = MultiStepKnn(
          engine.centroid_index(), query.centroid, scale, kK, plain,
          nullptr, &ms);
      QueryCost cost;
      const std::vector<Neighbor> got =
          engine.Knn(QueryStrategy::kVectorSetFilter, query, kK, &cost);
      EXPECT_EQ(got, expect) << "k-NN of id " << id;
      EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
      EXPECT_EQ(cost.filter_hits, ms.filter_hits) << "id " << id;
      EXPECT_EQ(cost.candidates_refined, ms.candidates_refined)
          << "id " << id;
      EXPECT_LE(cost.hungarian_invocations, cost.candidates_refined);
      total += cost;

      // Range with eps at the k-th distance: the range is never empty
      // and its edge is where the prune bites.
      const double eps = expect.back().distance;
      MultiStepStats rs;
      const std::vector<int> range_expect = MultiStepRange(
          engine.centroid_index(), query.centroid, scale, eps, plain,
          nullptr, &rs);
      QueryCost range_cost;
      EXPECT_EQ(engine.Range(QueryStrategy::kVectorSetFilter, query, eps,
                             &range_cost),
                range_expect)
          << "range of id " << id;
      EXPECT_EQ(range_cost.filter_hits, rs.filter_hits);
      EXPECT_EQ(range_cost.candidates_refined, rs.candidates_refined);
    }
    return total;
  }

  static CadDatabase* oracle_;
  static std::shared_ptr<const DbSnapshot>* ram_;
};

// A disk snapshot over the oracle corpus with a 16-page pool.
std::shared_ptr<const DbSnapshot> MakeDiskSnapshot(const CadDatabase& db,
                                                   const std::string& path) {
  StatusOr<std::shared_ptr<const DbSnapshot>> disk =
      DbSnapshot::CreateDiskBacked(db, path, 1, IoCostParams{}, 16);
  EXPECT_TRUE(disk.ok()) << disk.status().ToString();
  return disk.ok() ? *disk : nullptr;
}

// Buffer-pool misses of a 10-NN filter query for every id.
uint64_t FilterPoolMisses(const QueryEngine& engine,
                          const VectorSetStore& store,
                          const CadDatabase& queries) {
  const uint64_t before = store.pool().Stats().misses;
  for (int id = 0; id < kObjects; ++id) {
    QueryCost cost;
    engine.Knn(QueryStrategy::kVectorSetFilter, queries.object(id), kK, &cost);
    EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
  }
  return store.pool().Stats().misses - before;
}

CadDatabase* RefinementEquivalenceTest::oracle_ = nullptr;
std::shared_ptr<const DbSnapshot>* RefinementEquivalenceTest::ram_ = nullptr;

TEST_F(RefinementEquivalenceTest, CorpusIsDuplicateHeavy) {
  std::set<std::vector<FeatureVector>> distinct;
  for (int id = 0; id < kObjects; ++id) {
    distinct.insert(oracle_->object(id).vector_set.vectors);
  }
  EXPECT_LT(distinct.size(), static_cast<size_t>(kObjects) / 2);
}

TEST_F(RefinementEquivalenceTest, RamSnapshotMatchesPlainMultiStep) {
  const QueryCost total = CheckEveryId(**ram_);
  // On this duplicate-heavy corpus the prune skips most solves.
  EXPECT_LT(total.hungarian_invocations, total.candidates_refined / 2);
}

TEST_F(RefinementEquivalenceTest, DiskBackedSnapshotMatchesPlainMultiStep) {
  // A 16-page pool over a larger store: refinement decodes records
  // through real misses and evictions. The snapshot demotes its RAM
  // sets, so every candidate comes from the store.
  std::shared_ptr<const DbSnapshot> disk = MakeDiskSnapshot(
      *oracle_, ::testing::TempDir() + "/refinement_equivalence.vspg");
  ASSERT_NE(disk, nullptr);
  ASSERT_NE(disk->store(), nullptr);
  ASSERT_TRUE(disk->db().object(0).vector_set.empty());
  const QueryCost total = CheckEveryId(*disk);
  EXPECT_LT(total.hungarian_invocations, total.candidates_refined / 2);
  EXPECT_GT(disk->store()->pool().Stats().misses, 0u);
}

TEST_F(RefinementEquivalenceTest, LeafOrderStoreHalvesFilterPoolMisses) {
  std::shared_ptr<const DbSnapshot> disk = MakeDiskSnapshot(
      *oracle_, ::testing::TempDir() + "/refinement_leaf_order.vspg");
  ASSERT_NE(disk, nullptr);
  const uint64_t leaf_order =
      FilterPoolMisses(disk->engine(), *disk->store(), *oracle_);

  // The same records in id order -- the paper's unclustered object
  // file, and this store's layout before records carried their ids.
  const std::string path = ::testing::TempDir() + "/refinement_id_order.vspg";
  StatusOr<VectorSetStore> store = VectorSetStore::Create(path, 4096, 16);
  ASSERT_TRUE(store.ok());
  for (int id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(store->Append(id, oracle_->object(id).vector_set).ok());
  }
  ASSERT_TRUE(store->Flush().ok());
  QueryEngine engine(oracle_);
  engine.AttachStore(&*store);
  const uint64_t id_order = FilterPoolMisses(engine, *store, *oracle_);
  std::remove(path.c_str());

  EXPECT_GT(leaf_order, 0u);
  EXPECT_LE(2 * leaf_order, id_order)
      << "leaf order " << leaf_order << " misses, id order " << id_order;
}

TEST_F(RefinementEquivalenceTest, DiskScanReadsEachPageOnceAndMatchesRam) {
  const std::string path =
      ::testing::TempDir() + "/refinement_scan_layout.vspg";
  std::shared_ptr<const DbSnapshot> disk = MakeDiskSnapshot(*oracle_, path);
  ASSERT_NE(disk, nullptr);
  // Every page of the file but the paged file's own header.
  const uint64_t store_pages = std::filesystem::file_size(path) / 4096 - 1;
  const QueryEngine& ram = (*ram_)->engine();
  for (int id = 0; id < kObjects; ++id) {
    const ObjectRepr& query = oracle_->object(id);
    const uint64_t before = disk->store()->pool().Stats().misses;
    QueryCost cost;
    const std::vector<Neighbor> knn =
        disk->engine().Knn(QueryStrategy::kVectorSetScan, query, kK, &cost);
    EXPECT_LE(disk->store()->pool().Stats().misses - before, store_pages)
        << "scan of id " << id;
    EXPECT_TRUE(cost.status.ok()) << cost.status.ToString();
    const std::vector<Neighbor> expect =
        ram.Knn(QueryStrategy::kVectorSetScan, query, kK);
    EXPECT_EQ(knn, expect) << "scan k-NN of id " << id;

    const double eps = expect.back().distance;
    EXPECT_EQ(disk->engine().Range(QueryStrategy::kVectorSetScan, query, eps),
              ram.Range(QueryStrategy::kVectorSetScan, query, eps))
        << "scan range of id " << id;
  }
}

}  // namespace
}  // namespace vsim

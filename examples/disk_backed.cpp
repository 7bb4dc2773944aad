// Fully disk-backed similarity search: the extracted database lives in
// real paged files (a DiskXTree over the extended centroids and a
// VectorSetStore for the exact representations), queried through the
// concurrent sharded buffer pool (inner X-tree pages retained in its
// hot tier). Page accesses are charged only on actual cache misses,
// which quantifies how far the paper's flat I/O simulation (one page
// per candidate, every time) is from a system with a working buffer
// manager.
//
//   $ ./example_disk_backed [objects]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "vsim/common/rng.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"
#include "vsim/distance/min_matching.h"
#include "vsim/index/disk_xtree.h"
#include "vsim/storage/vector_set_store.h"

using namespace vsim;

int main(int argc, char** argv) {
  const size_t objects = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 400;
  std::printf("extracting %zu aircraft-like parts...\n", objects);
  ExtractionOptions opt;
  opt.extract_histograms = false;
  const Dataset ds = MakeAircraftDataset(objects, 7);
  StatusOr<CadDatabase> db = CadDatabase::FromDataset(ds, opt);
  if (!db.ok()) return 1;
  const int k_covers = db->options().num_covers;

  // --- Persist everything to disk -----------------------------------
  // The store's records follow the centroid tree's leaf order, so the
  // candidates of one query -- neighbours in centroid space -- share
  // pages; every record carries its object id, so reads stay by id.
  const std::string tree_path = "/tmp/vsim_disk_demo.tree";
  const std::string store_path = "/tmp/vsim_disk_demo.store";
  std::vector<int> leaf_order;
  {
    XTree centroid_tree(6);
    std::vector<FeatureVector> centroids;
    std::vector<int> ids;
    for (int i = 0; i < static_cast<int>(db->size()); ++i) {
      centroids.push_back(db->object(i).centroid);
      ids.push_back(i);
    }
    if (!centroid_tree.BulkLoad(centroids, ids).ok()) return 1;
    if (!DiskXTree::Write(centroid_tree, tree_path).ok()) return 1;
    leaf_order = centroid_tree.LeafOrder();
  }
  {
    StatusOr<VectorSetStore> writer =
        VectorSetStore::Create(store_path, 4096, 8);
    if (!writer.ok()) return 1;
    for (int id : leaf_order) {
      if (!writer->Append(id, db->object(id).vector_set).ok()) return 1;
    }
    if (!writer->Flush().ok()) return 1;
  }
  // Reopen both files so every pool starts cold.
  StatusOr<VectorSetStore> store = VectorSetStore::Open(store_path, 8);
  if (!store.ok()) return 1;
  store->pool().ResetStats();  // Open() scans once to rebuild the directory
  StatusOr<DiskXTree> tree = DiskXTree::Open(tree_path, 32);
  if (!tree.ok()) return 1;
  std::printf("persisted: centroid index + vector-set store on disk "
              "(pools start cold)\n\n");

  // --- Filter-and-refine 10-NN on real pages -----------------------
  // Conservative two-phase scheme: probe with a growing centroid-range
  // filter (Lemma 2: exact <= eps implies centroid distance <= eps/k),
  // refine candidates through the store.
  Rng rng(99);
  IoStats total;
  size_t refined_total = 0;
  const int queries = 50;
  for (int q = 0; q < queries; ++q) {
    const int qid = static_cast<int>(rng.NextBounded(db->size()));
    const VectorSet& query_set = db->object(qid).vector_set;
    const FeatureVector& query_centroid = db->object(qid).centroid;

    // Initial radius from a coarse sample, doubled until 10 hits.
    double eps = 0.5;
    std::vector<Neighbor> best;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto candidates =
          tree->RangeQuery(query_centroid, eps / k_covers, &total);
      best.clear();
      for (int id : candidates) {
        StatusOr<VectorSet> stored = store->Get(id, &total);
        if (!stored.ok()) return 1;
        ++refined_total;
        const double d = VectorSetDistance(query_set, *stored);
        if (d <= eps) best.push_back({id, d});
      }
      if (best.size() >= 10) break;
      eps *= 2.0;
    }
    std::sort(best.begin(), best.end(),
              [](const Neighbor& a, const Neighbor& b) {
                return a.distance < b.distance;
              });
    if (best.size() > 10) best.resize(10);
  }

  std::printf("%d disk-backed 10-NN queries:\n", queries);
  std::printf("  exact distances computed: %zu (%.1f per query)\n",
              refined_total, static_cast<double>(refined_total) / queries);
  std::printf("  index pool:  %zu hits, %zu misses\n", tree->pool().hits(),
              tree->pool().misses());
  std::printf("  store pool:  %zu hits, %zu misses\n",
              store->pool().hits(), store->pool().misses());
  std::printf("  charged page accesses (misses only): %zu -> %.2f s "
              "simulated I/O\n",
              total.page_accesses(), total.SimulatedSeconds());
  const double flat_pages =
      static_cast<double>(refined_total);  // the paper's flat model
  std::printf("  flat simulation would have charged >= %.0f candidate pages "
              "(%.2f s)\n",
              flat_pages, flat_pages * 0.008);
  std::remove(tree_path.c_str());
  std::remove(store_path.c_str());
  return 0;
}

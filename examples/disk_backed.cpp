// Disk-backed similarity search: the exact vector sets live in a real
// paged file (a VectorSetStore) read through the concurrent sharded
// buffer pool, while the filter step ranks the extended centroids in
// the in-memory X-tree -- the layout `vsim serve --store` runs. The
// store is written in the engine's record order (each distinct set's
// first record in the centroid tree's leaf order) and reopened cold, so
// page accesses are charged only on actual cache misses. That
// quantifies how far the paper's flat I/O simulation (one page per
// candidate, every time) is from a system with a working buffer
// manager. Every answer must equal the RAM-resident engine's.
//
//   $ ./example_disk_backed [objects]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "vsim/common/rng.h"
#include "vsim/core/query_engine.h"
#include "vsim/core/similarity.h"
#include "vsim/data/dataset.h"
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
  const QueryEngine ram(&*db);
  QueryEngine disk(&*db);

  // --- Persist the vector sets ----------------------------------------
  // One query's candidates are neighbours in centroid space, so the
  // leaf order puts them on shared pages; every record carries its
  // object id, so reads stay by id.
  const std::string store_path = "/tmp/vsim_disk_demo.store";
  {
    StatusOr<VectorSetStore> writer =
        VectorSetStore::Create(store_path, 4096, 8);
    if (!writer.ok()) return 1;
    for (int id : disk.StoreRecordOrder()) {
      if (!writer->Append(id, db->object(id).vector_set).ok()) return 1;
    }
    if (!writer->Flush().ok()) return 1;
  }
  // Reopen so the pool starts cold.
  StatusOr<VectorSetStore> store = VectorSetStore::Open(store_path, 8);
  if (!store.ok()) return 1;
  store->pool().ResetStats();  // Open() scans once to rebuild the directory
  disk.AttachStore(&*store);
  std::printf("persisted: vector-set store on disk (pool starts cold)\n\n");

  // --- Filter-and-refine 10-NN on real pages -------------------------
  Rng rng(99);
  QueryCost total;
  QueryCost flat;
  const int queries = 50;
  for (int q = 0; q < queries; ++q) {
    const int qid = static_cast<int>(rng.NextBounded(db->size()));
    QueryCost cost;
    const std::vector<Neighbor> answer =
        disk.Knn(QueryStrategy::kVectorSetFilter, qid, 10, &cost);
    if (!cost.status.ok()) {
      std::fprintf(stderr, "store read failed: %s\n",
                   cost.status.ToString().c_str());
      return 1;
    }
    total += cost;
    QueryCost ram_cost;
    if (answer != ram.Knn(QueryStrategy::kVectorSetFilter, qid, 10,
                          &ram_cost)) {
      std::fprintf(stderr, "query %d: disk answer differs from RAM\n", qid);
      return 1;
    }
    flat += ram_cost;
  }

  std::printf("%d disk-backed 10-NN queries (answers equal the RAM "
              "engine's):\n",
              queries);
  std::printf("  exact distances computed: %zu (%.1f per query)\n",
              total.candidates_refined,
              static_cast<double>(total.candidates_refined) / queries);
  std::printf("  store pool:  %llu hits, %llu misses\n",
              static_cast<unsigned long long>(store->pool().hits()),
              static_cast<unsigned long long>(store->pool().misses()));
  std::printf("  charged page accesses: %zu -> %.2f s simulated I/O "
              "(store pages on pool misses only)\n",
              total.io.page_accesses(), total.IoSeconds());
  std::printf("  flat simulation: %zu -> %.2f s (one store page per "
              "refined candidate)\n",
              flat.io.page_accesses(), flat.IoSeconds());
  disk.AttachStore(nullptr);
  std::remove(store_path.c_str());
  return 0;
}

#include "vsim/service/db_snapshot.h"

namespace vsim {

std::shared_ptr<const DbSnapshot> DbSnapshot::Create(CadDatabase db,
                                                     uint64_t generation,
                                                     IoCostParams params) {
  auto snapshot = std::shared_ptr<DbSnapshot>(new DbSnapshot());
  auto owned_db = std::make_unique<const CadDatabase>(std::move(db));
  snapshot->db_ = owned_db.get();
  snapshot->owned_db_ = std::move(owned_db);
  auto owned_engine =
      std::make_unique<const QueryEngine>(snapshot->db_, params);
  snapshot->engine_ = owned_engine.get();
  snapshot->owned_engine_ = std::move(owned_engine);
  snapshot->generation_ = generation;
  return snapshot;
}

StatusOr<std::shared_ptr<const DbSnapshot>> DbSnapshot::CreateDiskBacked(
    CadDatabase db, const std::string& store_path, uint64_t generation,
    IoCostParams params, size_t pool_pages, bool keep_ram_sets) {
  auto snapshot = std::shared_ptr<DbSnapshot>(new DbSnapshot());
  // Kept mutable until after the engine build so the RAM vector sets
  // can be demoted below; the pointer is stable across the move into
  // owned_db_, and the snapshot is published (and frozen) only after
  // this function returns.
  auto owned_db = std::make_unique<CadDatabase>(std::move(db));
  snapshot->db_ = owned_db.get();

  auto owned_engine = std::make_unique<QueryEngine>(snapshot->db_, params);
  // Materialize the store file in the engine's record order: the first
  // records of the distinct sets, which refinement reads, in the
  // centroid filter's leaf order -- the candidates of one query are
  // neighbours in centroid space, so they share pages and the buffer
  // pool holds a query's working set -- then the other members', which
  // only stored-id queries read. Records carry their object ids; Flush
  // checks each id was written exactly once.
  VSIM_ASSIGN_OR_RETURN(VectorSetStore store,
                        VectorSetStore::Create(store_path, 4096, pool_pages));
  for (int id : owned_engine->StoreRecordOrder()) {
    VSIM_RETURN_NOT_OK(store.Append(id, snapshot->db_->object(id).vector_set));
  }
  VSIM_RETURN_NOT_OK(store.Flush());
  snapshot->owned_store_ = std::make_unique<VectorSetStore>(std::move(store));
  owned_engine->AttachStore(snapshot->owned_store_.get());
  snapshot->engine_ = owned_engine.get();
  snapshot->owned_engine_ = std::move(owned_engine);
  // The engine build was the last consumer of the RAM vector sets, and
  // the engine keeps no copy of them. From here on the store holds the
  // only full copies; QueryService hydrates stored-id queries from it.
  if (!keep_ram_sets) owned_db->ReleaseVectorSets();
  snapshot->owned_db_ = std::move(owned_db);
  snapshot->generation_ = generation;
  return std::shared_ptr<const DbSnapshot>(snapshot);
}

std::shared_ptr<const DbSnapshot> DbSnapshot::Wrap(const CadDatabase* db,
                                                   const QueryEngine* engine,
                                                   uint64_t generation) {
  auto snapshot = std::shared_ptr<DbSnapshot>(new DbSnapshot());
  snapshot->db_ = db;
  snapshot->engine_ = engine;
  snapshot->generation_ = generation;
  return snapshot;
}

}  // namespace vsim

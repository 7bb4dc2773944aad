// Disk-backed store of vector sets: records packed into self-describing
// slotted pages of a PagedFile, accessed through the sharded buffer
// pool. This replaces the purely *simulated* object fetches of the
// query engine with real page I/O: a Get() charges the paper's 8 ms
// page cost only when the buffer pool actually misses.
//
// File layout, inside the PagedFile's pages:
//
//   page 1   store header: [8-byte magic "VSSTOR01"][u32 object count]
//   page 2.. data pages:   [u16 record count] then records
//                          [u32 object id][u16 payload bytes][payload]
//
// Records never span pages. Their order is the writer's choice: the
// serving path (DbSnapshot::CreateDiskBacked) appends them in the
// centroid filter's X-tree leaf order (XTree::LeafOrder), so the
// candidates of one query, which are neighbours in centroid space,
// share pages. Every record carries its object id, so reads stay
// addressed by id whatever the order; Flush and Open both check that
// each id 0..n-1 appears exactly once.
#ifndef VSIM_STORAGE_VECTOR_SET_STORE_H_
#define VSIM_STORAGE_VECTOR_SET_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "vsim/cache/page_cache.h"
#include "vsim/common/status.h"
#include "vsim/features/feature_vector.h"
#include "vsim/index/io_stats.h"
#include "vsim/storage/paged_file.h"

namespace vsim {

// Thread-safety: Get() is safe from any number of threads concurrently
// (the sharded pool and PagedFile underneath are fully concurrent; the
// record directory is immutable once built). The build phase --
// Append() and Flush() -- is single-writer and must not overlap reads,
// matching the build-once/serve-many lifecycle of the disk pipeline.
class VectorSetStore {
 public:
  // Creates a new store file holding no objects yet. `pool_pages` is
  // the buffer pool capacity.
  static StatusOr<VectorSetStore> Create(const std::string& path,
                                         size_t page_size = 4096,
                                         size_t pool_pages = 8);

  // Opens an existing store, rebuilding the id directory with one
  // sequential scan. Fails with a Status on a missing or foreign store
  // header (including files written before records carried their ids)
  // and unless the records hold each id 0..n-1 exactly once.
  static StatusOr<VectorSetStore> Open(const std::string& path,
                                       size_t pool_pages = 8);

  VectorSetStore(VectorSetStore&&) = default;
  VectorSetStore& operator=(VectorSetStore&&) = default;

  // Appends the record of object `id` after the last record written.
  // Fails for a negative or already stored id, or if the serialized
  // record exceeds the page payload capacity.
  Status Append(int id, const VectorSet& set);

  // Checks that the stored ids are exactly 0..size()-1, records the
  // object count in the header page and writes every dirty page back.
  Status Flush();

  // Decodes stored vector set `id` into `*buffer` in the flat layout
  // and returns a view of it (valid until the buffer is next changed).
  // The buffer is resized to the set's size * dim doubles; its capacity
  // is reused, so a buffer kept across calls decodes without
  // allocating. If `stats` is given, one page access is charged when
  // THIS call missed the buffer pool (plus the record's bytes) -- cache
  // hits are free, unlike the paper's flat simulation.
  StatusOr<FlatVectorSet> GetFlat(int id, std::vector<double>* buffer,
                                  IoStats* stats = nullptr) const;

  // Loads a stored vector set (GetFlat into a fresh VectorSet).
  StatusOr<VectorSet> Get(int id, IoStats* stats = nullptr) const;

  size_t size() const { return directory_.size(); }
  // Object ids in record order, page by page: the order a sequential
  // pass over the file meets them.
  const std::vector<int>& page_order() const { return page_order_; }
  const cache::ShardedBufferPool& pool() const { return *pool_; }
  cache::ShardedBufferPool& pool() { return *pool_; }

 private:
  VectorSetStore() = default;

  struct RecordRef {
    PageId page = 0;      // 0: no record for this id (build phase only)
    uint32_t offset = 0;  // payload byte offset within the page
    uint32_t bytes = 0;   // payload bytes
  };

  // Writes one record (header + payload) at the tail of the last data
  // page, or on a fresh page when it does not fit.
  StatusOr<RecordRef> AppendRecord(const char* data, size_t bytes);

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<cache::ShardedBufferPool> pool_;
  std::vector<RecordRef> directory_;  // indexed by object id
  std::vector<int> page_order_;
  PageId tail_page_ = 0;
  size_t tail_used_ = 0;
};

}  // namespace vsim

#endif  // VSIM_STORAGE_VECTOR_SET_STORE_H_

// Disk-resident X-tree: the nodes of an in-memory XTree written into
// consecutive pages of a PagedFile and queried through the sharded
// buffer pool. Inner-node pages are promoted to the pool's hot tier on
// first parse (the filter step's working set stays resident while leaf
// pages churn in the cold tier). Together with VectorSetStore this makes the whole
// filter-and-refine pipeline operate on real pages: an index node visit
// costs a page access only when the pool actually misses, unlike the
// flat per-visit charge of the in-memory tree.
//
// The disk tree is read-only: build (or bulk-load) in memory, write
// once, query many times. Queries are safe from any number of threads
// concurrently (the node directory is immutable after Open; the pool
// and file underneath are fully concurrent).
#ifndef VSIM_INDEX_DISK_XTREE_H_
#define VSIM_INDEX_DISK_XTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/features/feature_vector.h"
#include "vsim/index/io_stats.h"
#include "vsim/index/xtree.h"
#include "vsim/cache/page_cache.h"
#include "vsim/storage/paged_file.h"

namespace vsim {

class DiskXTree {
 public:
  // Serializes `tree` into a fresh paged file at `path`. Every node
  // occupies ceil(bytes / page_size) consecutive pages (supernodes span
  // several pages naturally). A grouped tree (XTree::grouped(): some
  // leaf entry holds several ids) is refused with FailedPrecondition
  // before anything is written: the disk format has one id per entry.
  static Status Write(const XTree& tree, const std::string& path,
                      size_t page_size = 4096);

  // Opens a previously written file. `pool_pages` is the buffer pool
  // capacity in pages.
  static StatusOr<DiskXTree> Open(const std::string& path,
                                  size_t pool_pages = 64);

  DiskXTree(DiskXTree&&) = default;
  DiskXTree& operator=(DiskXTree&&) = default;

  // Queries match the in-memory XTree's results exactly; `stats` is
  // charged one page access per buffer-pool miss plus the node bytes
  // actually parsed.
  std::vector<int> RangeQuery(const FeatureVector& query, double eps,
                              IoStats* stats = nullptr) const;
  std::vector<Neighbor> KnnQuery(const FeatureVector& query, int k,
                                 IoStats* stats = nullptr) const;

  size_t size() const { return count_; }
  int dim() const { return dim_; }
  const cache::ShardedBufferPool& pool() const { return *pool_; }
  cache::ShardedBufferPool& pool() { return *pool_; }

 private:
  DiskXTree() = default;

  struct NodeRef {
    PageId first_page = 0;
    uint32_t pages = 0;
    uint32_t bytes = 0;
  };

  struct DiskEntry {
    FeatureVector lo, hi;  // hi empty for leaf entries (point == lo)
    int32_t child = -1;
    int32_t id = -1;
  };

  struct DiskNode {
    bool leaf = true;
    std::vector<DiskEntry> entries;
  };

  StatusOr<DiskNode> FetchNode(uint32_t node_index, IoStats* stats) const;
  double MinDistToEntry(const FeatureVector& q, const DiskEntry& e) const;

  int dim_ = 0;
  uint32_t root_ = 0;
  size_t count_ = 0;
  std::vector<NodeRef> directory_;
  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<cache::ShardedBufferPool> pool_;
};

}  // namespace vsim

#endif  // VSIM_INDEX_DISK_XTREE_H_

// X-tree (Berchtold, Keim, Kriegel, VLDB'96): an R*-tree variant for
// high-dimensional point data that avoids high-overlap splits by
// (a) preferring overlap-free splits and (b) extending nodes into
// multi-page "supernodes" when no acceptable split exists. The paper
// indexes both the 6k-d one-vector representation and the 6-d extended
// centroids of the filter step with an X-tree.
//
// The tree lives in main memory; page accesses are *charged* to an
// IoStats according to how many simulated disk pages each visited node
// occupies (supernodes span several pages).
#ifndef VSIM_INDEX_XTREE_H_
#define VSIM_INDEX_XTREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <queue>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/features/feature_vector.h"
#include "vsim/index/io_stats.h"

namespace vsim {

struct XTreeOptions {
  size_t page_size_bytes = 4096;
  // Maximum tolerated overlap fraction of a topological (R*) split
  // before the overlap-minimal / supernode path is taken.
  double max_overlap = 0.2;
  // Minimum fill fraction an overlap-minimal split must achieve; below
  // this the node becomes a supernode instead.
  double min_fanout = 0.35;
};

struct Neighbor {
  int id = -1;
  double distance = 0.0;
  bool operator==(const Neighbor&) const = default;
};

class XTree {
 public:
  // `dim` is the dimensionality of the indexed points.
  explicit XTree(int dim, XTreeOptions options = {});

  XTree(const XTree&) = delete;
  XTree& operator=(const XTree&) = delete;
  XTree(XTree&&) = default;
  XTree& operator=(XTree&&) = default;

  // Inserts a point with a caller-chosen id.
  Status Insert(const FeatureVector& point, int id);

  // Bulk-loads a point set into an empty tree with Sort-Tile-Recursive
  // style packing: near-full leaves with little overlap, built in
  // O(n log n) -- the right way to index a whole CAD database at once.
  Status BulkLoad(const std::vector<FeatureVector>& points,
                  const std::vector<int>& ids);

  // All ids within Euclidean distance `eps` of `query` (inclusive).
  std::vector<int> RangeQuery(const FeatureVector& query, double eps,
                              IoStats* stats = nullptr) const;

  // The k nearest ids by Euclidean distance, ascending.
  std::vector<Neighbor> KnnQuery(const FeatureVector& query, int k,
                                 IoStats* stats = nullptr) const;

  // Incremental distance ranking (Hjaltason & Samet): yields stored
  // points in ascending distance from `query`, expanding index nodes
  // lazily. Used by the optimal multi-step k-NN algorithm.
  class RankingCursor {
   public:
    // True if another point is available (expands nodes as needed).
    bool HasNext();
    // Returns the next nearest point; call only if HasNext().
    Neighbor Next();
    // Distance of the next point without consuming it (inf if none).
    double NextDistance();

   private:
    friend class XTree;
    struct QueueItem {
      double distance;
      int node;  // node index, or -1 for points
      int id;
      bool operator<(const QueueItem& o) const {
        return distance > o.distance;  // min-heap via std::priority_queue
      }
    };
    RankingCursor(const XTree* tree, FeatureVector query, IoStats* stats);
    // Expands nodes until the heap top is a point (or the heap empties).
    void Settle();

    const XTree* tree_;
    FeatureVector query_;
    IoStats* stats_;
    std::priority_queue<QueueItem> heap_;
  };

  RankingCursor Rank(const FeatureVector& query, IoStats* stats = nullptr) const;

  // Every stored id in depth-first leaf order (leaves left to right,
  // entries in node order). For a bulk-loaded tree this is the STR
  // packing order, in which consecutive ids are spatial neighbours:
  // DbSnapshot::CreateDiskBacked writes the vector-set store in the
  // centroid filter's leaf order so one query's candidates share pages.
  std::vector<int> LeafOrder() const;

  // Persistence: writes/reads the exact tree structure (nodes, boxes,
  // supernode multiples, split history) in a versioned little-endian
  // format, so an index built once can be reused across sessions.
  Status Save(const std::string& path) const;
  static StatusOr<XTree> Load(const std::string& path);

  // Structural invariant check (test/debug aid): every child entry's
  // box is contained in its parent entry's box, entry counts respect
  // node capacities, every stored id is reachable exactly once, and all
  // leaves sit at the same depth.
  Status Validate() const;

  // Structure statistics.
  size_t size() const { return count_; }
  int height() const;
  size_t node_count() const { return nodes_.size(); }
  size_t supernode_count() const;
  // Total simulated pages of all nodes (the cost of a full scan of the
  // index, and the storage footprint reported by benches).
  size_t total_pages() const;

 private:
  friend class DiskXTree;  // read-only access for the disk writer

  struct Entry {
    FeatureVector lo, hi;  // MBR (lo == hi == point for leaf entries)
    int child = -1;        // node index (internal) or -1 (leaf entry)
    int id = -1;           // object id (leaf entry)
  };

  struct Node {
    bool leaf = true;
    int supernode_multiple = 1;  // capacity = multiple * base capacity
    std::vector<Entry> entries;
    // Split history: dimensions this node's content was split along.
    uint64_t split_dims = 0;
  };

  size_t LeafCapacity() const;
  size_t InternalCapacity() const;
  size_t NodeCapacity(const Node& node) const;
  size_t NodePages(const Node& node) const;
  size_t NodeBytes(const Node& node) const;

  void ChargeVisit(int node_index, IoStats* stats) const;

  // Insertion machinery.
  int ChooseSubtree(const Node& node, const Entry& entry) const;
  bool SplitNode(int node_index, Node* left_out, Node* right_out);
  void HandleOverflow(std::vector<int>& path);

  Entry NodeEntry(int node_index) const;

  double MinDistToBox(const FeatureVector& q, const Entry& e) const;

  void RangeRecursive(int node_index, const FeatureVector& query, double eps,
                      IoStats* stats, std::vector<int>* out) const;

  int dim_;
  XTreeOptions options_;
  std::vector<Node> nodes_;
  int root_ = 0;
  size_t count_ = 0;
};

}  // namespace vsim

#endif  // VSIM_INDEX_XTREE_H_

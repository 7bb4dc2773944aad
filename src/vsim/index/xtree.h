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
//
// A leaf entry is one point and the ascending ids of the objects stored
// at it: one id per Insert or BulkLoad, or a whole member run from
// BulkLoadGroups (the query engine indexes each distinct vector set
// once; DESIGN.md section 5). Every query answers in object ids.
#ifndef VSIM_INDEX_XTREE_H_
#define VSIM_INDEX_XTREE_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <string>
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

// One ranked leaf entry: its distance from the query and the ids stored
// at its point, ascending (members.front() is the smallest).
struct RankedEntry {
  double distance = 0.0;
  std::span<const int> members;
};

class XTree {
 public:
  // `dim` is the dimensionality of the indexed points.
  explicit XTree(int dim, XTreeOptions options = {});

  XTree(const XTree&) = delete;
  XTree& operator=(const XTree&) = delete;
  XTree(XTree&&) = default;
  XTree& operator=(XTree&&) = default;

  // Inserts a point with a caller-chosen id (a leaf entry of one).
  Status Insert(const FeatureVector& point, int id);

  // Bulk-loads a point set into an empty tree with Sort-Tile-Recursive
  // style packing: near-full leaves with little overlap, built in
  // O(n log n) -- the right way to index a whole CAD database at once.
  Status BulkLoad(const std::vector<FeatureVector>& points,
                  const std::vector<int>& ids);

  // The same packing with one leaf entry per member run: points[i] is
  // stored with the ids members[i], which must be non-empty and
  // strictly ascending.
  Status BulkLoadGroups(const std::vector<FeatureVector>& points,
                        const std::vector<std::vector<int>>& members);

  // All ids within Euclidean distance `eps` of `query` (inclusive),
  // entry by entry, each entry's ids ascending.
  std::vector<int> RangeQuery(const FeatureVector& query, double eps,
                              IoStats* stats = nullptr) const;

  // The member runs of the leaf entries within `eps` of `query`.
  std::vector<std::span<const int>> RangeEntries(
      const FeatureVector& query, double eps, IoStats* stats = nullptr) const;

  // The k nearest ids by Euclidean distance, ascending; the ids of one
  // entry share its distance and come in ascending order.
  std::vector<Neighbor> KnnQuery(const FeatureVector& query, int k,
                                 IoStats* stats = nullptr) const;

  // Incremental distance ranking (Hjaltason & Samet): yields leaf
  // entries in ascending distance from `query`, expanding index nodes
  // lazily. Used by the optimal multi-step k-NN algorithm. Computed
  // distances are monotone along the ranking: a node's box distance
  // never exceeds the computed distance of a point inside it.
  class RankingCursor {
   public:
    // True if another entry is available (expands nodes as needed).
    bool HasNext();
    // Returns the next nearest entry; call only if HasNext().
    RankedEntry Next();
    // Distance of the next entry without consuming it (inf if none).
    double NextDistance();
    // Wall time (steady clock) spent expanding nodes so far: the
    // ranking's share of the caller's time, with two clock reads per
    // call that expands nodes and none per entry.
    double expansion_seconds() const { return expansion_seconds_; }

   private:
    friend class XTree;
    struct QueueItem {
      double distance;
      int node;   // node to expand, or -1 - the leaf holding the entry
      int entry;  // leaf entry: its index within that leaf
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
    double expansion_seconds_ = 0.0;
  };

  RankingCursor Rank(const FeatureVector& query, IoStats* stats = nullptr) const;

  // The member runs of every leaf entry in depth-first leaf order
  // (leaves left to right, entries in node order). For a bulk-loaded
  // tree this is the STR packing order, in which consecutive entries
  // are spatial neighbours: DbSnapshot::CreateDiskBacked writes the
  // vector-set store in the centroid filter's leaf order so one query's
  // candidates share pages.
  std::vector<std::span<const int>> LeafEntries() const;

  // Every stored id in leaf order: LeafEntries() flattened.
  std::vector<int> LeafOrder() const;

  // Declares that every stored point lies within `error` (Euclidean)
  // of the exact value it was computed for. The multi-step loops widen
  // their filter by it (src/vsim/index/multistep.h); 0, the default,
  // declares exact points.
  void set_point_error(double error) { point_error_ = error; }
  double point_error() const { return point_error_; }

  // Persistence: writes/reads the exact tree structure (nodes, boxes,
  // supernode multiples, split history) in a versioned little-endian
  // format, so an index built once can be reused across sessions. The
  // format holds one id per leaf entry and exact points: Save refuses a
  // grouped() tree or a non-zero point_error() with FailedPrecondition
  // before writing anything.
  Status Save(const std::string& path) const;
  static StatusOr<XTree> Load(const std::string& path);

  // Structural invariant check (test/debug aid): every child entry's
  // box is contained in its parent entry's box, entry counts respect
  // node capacities, member runs are non-empty and strictly ascending,
  // every stored id is reachable exactly once, and all leaves sit at
  // the same depth.
  Status Validate() const;

  // Structure statistics. size() counts stored ids; entry_count() the
  // leaf entries (equal unless member runs hold several ids).
  size_t size() const { return members_.size(); }
  size_t entry_count() const { return count_; }
  int dim() const { return dim_; }
  // True if some leaf entry holds more than one id.
  bool grouped() const { return members_.size() != count_; }
  int height() const;
  size_t node_count() const { return nodes_.size(); }
  size_t supernode_count() const;
  // Total simulated pages of all nodes (the cost of a full scan of the
  // index, and the storage footprint reported by benches).
  size_t total_pages() const;

 private:
  struct Entry {
    FeatureVector lo, hi;  // MBR (lo == hi == point for leaf entries)
    int child = -1;        // node index (internal) or -1 (leaf entry)
    int id = -1;           // leaf entry: its smallest member id
    // Leaf entry: its member run, members_[first, first + count).
    uint32_t first = 0;
    uint32_t count = 0;
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

  std::span<const int> Members(const Entry& e) const {
    return {members_.data() + e.first, e.count};
  }

  void RangeRecursive(int node_index, const FeatureVector& query, double eps,
                      IoStats* stats,
                      std::vector<std::span<const int>>* out) const;

  int dim_;
  XTreeOptions options_;
  std::vector<Node> nodes_;
  int root_ = 0;
  size_t count_ = 0;          // leaf entries
  std::vector<int> members_;  // every entry's member run, concatenated
  double point_error_ = 0.0;
};

}  // namespace vsim

#endif  // VSIM_INDEX_XTREE_H_

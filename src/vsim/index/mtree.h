// M-tree (Ciaccia, Patella, Zezula, VLDB'97): a paged, balanced index
// for metric spaces. Section 4.3 of the paper names it as the direct
// way to index vector sets, because the minimal matching distance is a
// metric. This implementation is generic over the object type and
// metric, and is instantiated with VectorSet + minimal matching
// distance by the query engine.
//
// Split policy: mM_RAD promotion (the pair of promoted pivots that
// minimizes the larger covering radius) with generalized-hyperplane
// partitioning. Queries prune with the covering radii and count both
// simulated I/O and metric distance evaluations.
#ifndef VSIM_INDEX_MTREE_H_
#define VSIM_INDEX_MTREE_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "vsim/index/io_stats.h"
#include "vsim/index/xtree.h"  // for Neighbor

namespace vsim {

struct MTreeOptions {
  size_t node_capacity = 16;
  // Simulated storage size of one object (for I/O accounting).
  size_t object_bytes = 336;
  size_t page_size_bytes = 4096;
};

template <typename T>
class MTree {
 public:
  using DistanceFn = std::function<double(const T&, const T&)>;

  explicit MTree(DistanceFn distance, MTreeOptions options = {})
      : distance_(std::move(distance)), options_(options) {
    nodes_.push_back(Node{});
  }

  MTree(const MTree&) = delete;
  MTree& operator=(const MTree&) = delete;

  void Insert(T object, int id) {
    Entry entry;
    entry.object = std::move(object);
    entry.id = id;
    entry.radius = 0.0;
    entry.child = -1;

    std::vector<int> path;
    int current = root_;
    for (;;) {
      path.push_back(current);
      Node& node = nodes_[current];
      if (node.leaf) break;
      current = ChooseSubtree(&node, entry.object);
    }
    nodes_[current].entries.push_back(std::move(entry));
    ++count_;
    HandleOverflow(path);
  }

  size_t size() const { return count_; }
  size_t node_count() const { return nodes_.size(); }

  int height() const {
    int h = 1;
    int current = root_;
    while (!nodes_[current].leaf) {
      ++h;
      current = nodes_[current].entries.front().child;
    }
    return h;
  }

  // Structural invariant check (test aid): every routing entry's
  // covering radius bounds the distance from its pivot to every data
  // object in its subtree. O(n * height) distance evaluations.
  Status Validate() const {
    if (count_ == 0) return Status::OK();
    std::vector<const T*> all;
    return ValidateRecursive(root_, &all);
  }

  // All ids within distance `eps` of `query`.
  std::vector<int> RangeQuery(const T& query, double eps,
                              IoStats* stats = nullptr,
                              size_t* distance_evals = nullptr) const {
    std::vector<int> out;
    if (count_ == 0) return out;
    size_t evals = 0;
    RangeRecursive(root_, query, eps, stats, &evals, &out);
    if (distance_evals != nullptr) *distance_evals = evals;
    return out;
  }

  // k nearest ids, ascending by distance (best-first search with
  // covering-radius lower bounds).
  std::vector<Neighbor> KnnQuery(const T& query, int k,
                                 IoStats* stats = nullptr,
                                 size_t* distance_evals = nullptr) const {
    std::vector<Neighbor> result;
    if (count_ == 0 || k <= 0) return result;
    size_t evals = 0;

    struct Item {
      double bound;  // lower bound on distances below this item
      int node;      // -1 for object items
      int id;
      double distance;  // exact distance for object items
      bool operator<(const Item& o) const { return bound > o.bound; }
    };
    std::priority_queue<Item> heap;
    heap.push({0.0, root_, -1, 0.0});
    while (!heap.empty() && static_cast<int>(result.size()) < k) {
      const Item item = heap.top();
      heap.pop();
      if (item.node < 0) {
        result.push_back({item.id, item.distance});
        continue;
      }
      ChargeVisit(item.node, stats);
      const Node& node = nodes_[item.node];
      for (const Entry& e : node.entries) {
        const double d = distance_(query, e.object);
        ++evals;
        if (node.leaf) {
          heap.push({d, -1, e.id, d});
        } else {
          heap.push({std::max(0.0, d - e.radius), e.child, -1, 0.0});
        }
      }
    }
    if (distance_evals != nullptr) *distance_evals = evals;
    return result;
  }

 private:
  struct Entry {
    T object;            // pivot (internal) or data object (leaf)
    int id = -1;         // object id (leaf)
    double radius = 0.0;  // covering radius (internal)
    int child = -1;       // child node (internal)
  };

  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;
  };

  void ChargeVisit(int node_index, IoStats* stats) const {
    if (stats == nullptr) return;
    const Node& node = nodes_[node_index];
    const size_t entry_bytes =
        options_.object_bytes + (node.leaf ? sizeof(int) : 2 * sizeof(double));
    const size_t bytes = node.entries.size() * entry_bytes;
    stats->AddPageAccesses(
        std::max<size_t>(1, (bytes + options_.page_size_bytes - 1) /
                                options_.page_size_bytes));
    stats->AddBytesRead(bytes);
  }

  int ChooseSubtree(Node* node, const T& object) {
    // Prefer a pivot whose radius already covers the object; otherwise
    // the one needing the least radius growth.
    int best = -1;
    double best_key = std::numeric_limits<double>::infinity();
    bool best_covers = false;
    std::vector<double> dist(node->entries.size());
    for (size_t i = 0; i < node->entries.size(); ++i) {
      dist[i] = distance_(object, node->entries[i].object);
      const bool covers = dist[i] <= node->entries[i].radius;
      const double key = covers ? dist[i] : dist[i] - node->entries[i].radius;
      if ((covers && !best_covers) ||
          (covers == best_covers && key < best_key)) {
        best = static_cast<int>(i);
        best_key = key;
        best_covers = covers;
      }
    }
    assert(best >= 0);
    Entry& chosen = node->entries[best];
    chosen.radius = std::max(chosen.radius, dist[best]);
    return chosen.child;
  }

  void HandleOverflow(std::vector<int>& path) {
    for (int level = static_cast<int>(path.size()) - 1; level >= 0; --level) {
      const int node_index = path[level];
      if (nodes_[node_index].entries.size() <= options_.node_capacity) {
        continue;
      }
      // --- mM_RAD promotion --------------------------------------
      std::vector<Entry> entries = std::move(nodes_[node_index].entries);
      const bool was_leaf = nodes_[node_index].leaf;
      const size_t n = entries.size();
      std::vector<double> d(n * n, 0.0);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          d[i * n + j] = d[j * n + i] =
              distance_(entries[i].object, entries[j].object);
        }
      }
      // Generalized hyperplane: each entry goes to the closer pivot; an
      // entry equidistant from both goes to the side holding fewer
      // entries so far. Without that tie rule, duplicate objects (equal
      // distances to both pivots) all land on one side, which leaves an
      // empty sibling and an over-capacity node.
      const auto goes_left = [&](size_t a, size_t b, size_t e, size_t left,
                                 size_t right) {
        const double da = d[a * n + e], db = d[b * n + e];
        return da < db || (da == db && left <= right);
      };
      size_t p1 = 0, p2 = 1;
      double best_mm = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          double r1 = 0.0, r2 = 0.0;
          size_t left = 0, right = 0;
          for (size_t e = 0; e < n; ++e) {
            const double child_extent =
                entries[e].child >= 0 ? entries[e].radius : 0.0;
            if (goes_left(i, j, e, left, right)) {
              r1 = std::max(r1, d[i * n + e] + child_extent);
              ++left;
            } else {
              r2 = std::max(r2, d[j * n + e] + child_extent);
              ++right;
            }
          }
          const double mm = std::max(r1, r2);
          if (mm < best_mm) {
            best_mm = mm;
            p1 = i;
            p2 = j;
          }
        }
      }
      // Partition.
      Node left, right;
      left.leaf = right.leaf = was_leaf;
      double r1 = 0.0, r2 = 0.0;
      T pivot1 = entries[p1].object;
      T pivot2 = entries[p2].object;
      for (size_t e = 0; e < n; ++e) {
        const double child_extent =
            entries[e].child >= 0 ? entries[e].radius : 0.0;
        if (goes_left(p1, p2, e, left.entries.size(), right.entries.size())) {
          r1 = std::max(r1, d[p1 * n + e] + child_extent);
          left.entries.push_back(std::move(entries[e]));
        } else {
          r2 = std::max(r2, d[p2 * n + e] + child_extent);
          right.entries.push_back(std::move(entries[e]));
        }
      }
      const int left_index = node_index;
      nodes_[left_index] = std::move(left);
      nodes_.push_back(std::move(right));
      const int right_index = static_cast<int>(nodes_.size()) - 1;

      Entry left_entry;
      left_entry.object = std::move(pivot1);
      left_entry.radius = r1;
      left_entry.child = left_index;
      Entry right_entry;
      right_entry.object = std::move(pivot2);
      right_entry.radius = r2;
      right_entry.child = right_index;

      if (level == 0) {
        Node new_root;
        new_root.leaf = false;
        new_root.entries.push_back(std::move(left_entry));
        new_root.entries.push_back(std::move(right_entry));
        nodes_.push_back(std::move(new_root));
        root_ = static_cast<int>(nodes_.size()) - 1;
        return;
      }
      Node& parent = nodes_[path[level - 1]];
      for (Entry& e : parent.entries) {
        if (e.child == left_index) {
          e = std::move(left_entry);
          break;
        }
      }
      parent.entries.push_back(std::move(right_entry));
    }
  }

  // Returns the data objects under `node_index` in `*objects` and
  // verifies covering radii along the way.
  Status ValidateRecursive(int node_index, std::vector<const T*>* objects) const {
    const Node& node = nodes_[node_index];
    if (node.entries.empty()) {
      return Status::Internal("empty M-tree node");
    }
    if (node.entries.size() > options_.node_capacity) {
      return Status::Internal("M-tree node exceeds capacity");
    }
    if (node.leaf) {
      for (const Entry& e : node.entries) objects->push_back(&e.object);
      return Status::OK();
    }
    for (const Entry& e : node.entries) {
      std::vector<const T*> subtree;
      VSIM_RETURN_NOT_OK(ValidateRecursive(e.child, &subtree));
      for (const T* obj : subtree) {
        if (distance_(e.object, *obj) > e.radius + 1e-9) {
          return Status::Internal("covering radius violated");
        }
      }
      objects->insert(objects->end(), subtree.begin(), subtree.end());
    }
    return Status::OK();
  }

  void RangeRecursive(int node_index, const T& query, double eps,
                      IoStats* stats, size_t* evals,
                      std::vector<int>* out) const {
    ChargeVisit(node_index, stats);
    const Node& node = nodes_[node_index];
    for (const Entry& e : node.entries) {
      const double d = distance_(query, e.object);
      ++*evals;
      if (node.leaf) {
        if (d <= eps) out->push_back(e.id);
      } else if (d <= eps + e.radius) {
        RangeRecursive(e.child, query, eps, stats, evals, out);
      }
    }
  }

  DistanceFn distance_;
  MTreeOptions options_;
  std::vector<Node> nodes_;
  int root_ = 0;
  size_t count_ = 0;
};

}  // namespace vsim

#endif  // VSIM_INDEX_MTREE_H_

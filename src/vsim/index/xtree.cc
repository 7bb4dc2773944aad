#include "vsim/index/xtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "vsim/common/stopwatch.h"

namespace vsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double BoxVolumeNormalized(const FeatureVector& lo, const FeatureVector& hi,
                           const FeatureVector& ref_lo,
                           const FeatureVector& ref_hi) {
  // Product over dimensions of extent / reference extent, skipping
  // dimensions where the reference is degenerate. Robust proxy for
  // volume in high dimensions where exact volumes collapse to zero.
  double v = 1.0;
  for (size_t d = 0; d < lo.size(); ++d) {
    const double ref = ref_hi[d] - ref_lo[d];
    if (ref <= 0.0) continue;
    v *= std::max(0.0, (hi[d] - lo[d]) / ref);
  }
  return v;
}

double BoxMargin(const FeatureVector& lo, const FeatureVector& hi) {
  double m = 0.0;
  for (size_t d = 0; d < lo.size(); ++d) m += hi[d] - lo[d];
  return m;
}

void ExtendBox(FeatureVector* lo, FeatureVector* hi, const FeatureVector& elo,
               const FeatureVector& ehi) {
  for (size_t d = 0; d < lo->size(); ++d) {
    (*lo)[d] = std::min((*lo)[d], elo[d]);
    (*hi)[d] = std::max((*hi)[d], ehi[d]);
  }
}

double AreaEnlargement(const FeatureVector& lo, const FeatureVector& hi,
                       const FeatureVector& elo, const FeatureVector& ehi) {
  // Margin-based enlargement: how much the box boundary has to grow.
  // (Volume-based enlargement degenerates in high dimensions.)
  double grow = 0.0;
  for (size_t d = 0; d < lo.size(); ++d) {
    grow += std::max(0.0, lo[d] - elo[d]) + std::max(0.0, ehi[d] - hi[d]);
  }
  return grow;
}

}  // namespace

XTree::XTree(int dim, XTreeOptions options)
    : dim_(dim), options_(options) {
  nodes_.push_back(Node{});  // empty leaf root
}

size_t XTree::LeafCapacity() const {
  const size_t entry = static_cast<size_t>(dim_) * sizeof(double) + sizeof(int);
  return std::max<size_t>(2, options_.page_size_bytes / entry);
}

size_t XTree::InternalCapacity() const {
  const size_t entry =
      2 * static_cast<size_t>(dim_) * sizeof(double) + sizeof(int);
  return std::max<size_t>(2, options_.page_size_bytes / entry);
}

size_t XTree::NodeCapacity(const Node& node) const {
  return (node.leaf ? LeafCapacity() : InternalCapacity()) *
         static_cast<size_t>(node.supernode_multiple);
}

size_t XTree::NodePages(const Node& node) const {
  return static_cast<size_t>(node.supernode_multiple);
}

size_t XTree::NodeBytes(const Node& node) const {
  const size_t entry = node.leaf
                           ? static_cast<size_t>(dim_) * sizeof(double) + sizeof(int)
                           : 2 * static_cast<size_t>(dim_) * sizeof(double) + sizeof(int);
  return node.entries.size() * entry;
}

void XTree::ChargeVisit(int node_index, IoStats* stats) const {
  if (stats == nullptr) return;
  const Node& node = nodes_[node_index];
  stats->AddPageAccesses(NodePages(node));
  stats->AddBytesRead(NodeBytes(node));
}

XTree::Entry XTree::NodeEntry(int node_index) const {
  const Node& node = nodes_[node_index];
  assert(!node.entries.empty());
  Entry e;
  e.child = node_index;
  e.lo = node.entries.front().lo;
  e.hi = node.entries.front().hi;
  for (const Entry& child : node.entries) {
    ExtendBox(&e.lo, &e.hi, child.lo, child.hi);
  }
  return e;
}

int XTree::ChooseSubtree(const Node& node, const Entry& entry) const {
  // R*-style: minimize margin enlargement, tie-break on smaller margin.
  int best = 0;
  double best_grow = kInf, best_margin = kInf;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const Entry& e = node.entries[i];
    const double grow = AreaEnlargement(e.lo, e.hi, entry.lo, entry.hi);
    const double margin = BoxMargin(e.lo, e.hi);
    if (grow < best_grow ||
        (grow == best_grow && margin < best_margin)) {
      best = static_cast<int>(i);
      best_grow = grow;
      best_margin = margin;
    }
  }
  return best;
}

Status XTree::Insert(const FeatureVector& point, int id) {
  if (static_cast<int>(point.size()) != dim_) {
    return Status::InvalidArgument("point dimensionality mismatch");
  }
  Entry entry;
  entry.lo = point;
  entry.hi = point;
  entry.id = id;
  entry.first = static_cast<uint32_t>(members_.size());
  entry.count = 1;
  members_.push_back(id);

  // Descend to a leaf, remembering the path.
  std::vector<int> path;
  int current = root_;
  for (;;) {
    path.push_back(current);
    Node& node = nodes_[current];
    if (node.leaf) break;
    const int slot = ChooseSubtree(node, entry);
    // Pre-extend the child MBR so ancestors stay consistent.
    ExtendBox(&node.entries[slot].lo, &node.entries[slot].hi, entry.lo,
              entry.hi);
    current = node.entries[slot].child;
  }
  nodes_[current].entries.push_back(std::move(entry));
  ++count_;
  HandleOverflow(path);
  return Status::OK();
}

void XTree::HandleOverflow(std::vector<int>& path) {
  // Walk from the leaf upward, splitting overflowing nodes.
  for (int level = static_cast<int>(path.size()) - 1; level >= 0; --level) {
    const int node_index = path[level];
    if (nodes_[node_index].entries.size() <= NodeCapacity(nodes_[node_index])) {
      continue;
    }
    Node left, right;
    if (!SplitNode(node_index, &left, &right)) {
      continue;  // became a supernode; no structural change
    }
    // Install the two halves. Reuse node_index for the left half.
    const int left_index = node_index;
    nodes_[left_index] = std::move(left);
    nodes_.push_back(std::move(right));
    const int right_index = static_cast<int>(nodes_.size()) - 1;

    if (level == 0) {
      // Split the root: create a fresh root above.
      Node new_root;
      new_root.leaf = false;
      new_root.entries.push_back(NodeEntry(left_index));
      new_root.entries.push_back(NodeEntry(right_index));
      nodes_.push_back(std::move(new_root));
      root_ = static_cast<int>(nodes_.size()) - 1;
      return;
    }
    // Update the parent: refresh the left child's entry, add the right.
    Node& parent = nodes_[path[level - 1]];
    for (Entry& e : parent.entries) {
      if (e.child == left_index) {
        const Entry refreshed = NodeEntry(left_index);
        e.lo = refreshed.lo;
        e.hi = refreshed.hi;
        break;
      }
    }
    parent.entries.push_back(NodeEntry(right_index));
    // Loop continues upward and handles the parent's overflow, if any.
  }
}

bool XTree::SplitNode(int node_index, Node* left_out, Node* right_out) {
  Node& node = nodes_[node_index];
  std::vector<Entry>& entries = node.entries;
  const size_t n = entries.size();
  const size_t min_fill = std::max<size_t>(1, n * 2 / 5);  // R* 40%

  // --- R* topological split ---------------------------------------
  // Choose the axis with minimal sum of margins over all distributions,
  // then the distribution with minimal overlap (normalized volume).
  FeatureVector all_lo = entries.front().lo, all_hi = entries.front().hi;
  for (const Entry& e : entries) ExtendBox(&all_lo, &all_hi, e.lo, e.hi);

  int best_axis = -1;
  double best_axis_margin = kInf;
  for (int axis = 0; axis < dim_; ++axis) {
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      if (entries[a].lo[axis] != entries[b].lo[axis]) {
        return entries[a].lo[axis] < entries[b].lo[axis];
      }
      return entries[a].hi[axis] < entries[b].hi[axis];
    });
    double margin_sum = 0.0;
    for (size_t k = min_fill; k <= n - min_fill; ++k) {
      FeatureVector llo = entries[order[0]].lo, lhi = entries[order[0]].hi;
      for (size_t i = 1; i < k; ++i) {
        ExtendBox(&llo, &lhi, entries[order[i]].lo, entries[order[i]].hi);
      }
      FeatureVector rlo = entries[order[k]].lo, rhi = entries[order[k]].hi;
      for (size_t i = k + 1; i < n; ++i) {
        ExtendBox(&rlo, &rhi, entries[order[i]].lo, entries[order[i]].hi);
      }
      margin_sum += BoxMargin(llo, lhi) + BoxMargin(rlo, rhi);
    }
    if (margin_sum < best_axis_margin) {
      best_axis_margin = margin_sum;
      best_axis = axis;
    }
  }

  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (entries[a].lo[best_axis] != entries[b].lo[best_axis]) {
      return entries[a].lo[best_axis] < entries[b].lo[best_axis];
    }
    return entries[a].hi[best_axis] < entries[b].hi[best_axis];
  });

  size_t best_k = min_fill;
  double best_overlap = kInf, best_area = kInf;
  for (size_t k = min_fill; k <= n - min_fill; ++k) {
    FeatureVector llo = entries[order[0]].lo, lhi = entries[order[0]].hi;
    for (size_t i = 1; i < k; ++i) {
      ExtendBox(&llo, &lhi, entries[order[i]].lo, entries[order[i]].hi);
    }
    FeatureVector rlo = entries[order[k]].lo, rhi = entries[order[k]].hi;
    for (size_t i = k + 1; i < n; ++i) {
      ExtendBox(&rlo, &rhi, entries[order[i]].lo, entries[order[i]].hi);
    }
    // Intersection box.
    FeatureVector ilo(dim_), ihi(dim_);
    bool empty = false;
    for (int d = 0; d < dim_; ++d) {
      ilo[d] = std::max(llo[d], rlo[d]);
      ihi[d] = std::min(lhi[d], rhi[d]);
      if (ilo[d] > ihi[d]) empty = true;
    }
    const double overlap =
        empty ? 0.0 : BoxVolumeNormalized(ilo, ihi, all_lo, all_hi);
    const double area = BoxVolumeNormalized(llo, lhi, all_lo, all_hi) +
                        BoxVolumeNormalized(rlo, rhi, all_lo, all_hi);
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  int split_axis = best_axis;
  size_t split_k = best_k;

  if (best_overlap > options_.max_overlap) {
    // --- Overlap-minimal split (X-tree) ---------------------------
    // Look for an axis permitting an overlap-free partition; prefer
    // axes from the node's split history (their grouping tends to be
    // separable), then the rest.
    int free_axis = -1;
    size_t free_k = 0;
    double free_balance = -1.0;
    for (int pass = 0; pass < 2 && free_axis < 0; ++pass) {
      for (int axis = 0; axis < dim_; ++axis) {
        const bool in_history = (node.split_dims >> (axis % 64)) & 1;
        if ((pass == 0) != in_history) continue;
        std::vector<int> ord(n);
        std::iota(ord.begin(), ord.end(), 0);
        std::sort(ord.begin(), ord.end(), [&](int a, int b) {
          return entries[a].lo[axis] < entries[b].lo[axis];
        });
        // Prefix max of hi values.
        double prefix_hi = -kInf;
        for (size_t k = 1; k < n; ++k) {
          prefix_hi = std::max(prefix_hi, entries[ord[k - 1]].hi[axis]);
          if (prefix_hi <= entries[ord[k]].lo[axis]) {
            const double balance =
                static_cast<double>(std::min(k, n - k)) / n;
            if (balance > free_balance) {
              free_balance = balance;
              free_axis = axis;
              free_k = k;
            }
          }
        }
      }
    }
    if (free_axis >= 0 && free_balance >= options_.min_fanout * 0.5) {
      split_axis = free_axis;
      split_k = free_k;
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return entries[a].lo[split_axis] < entries[b].lo[split_axis];
      });
    } else {
      // --- Supernode ----------------------------------------------
      node.supernode_multiple += 1;
      return false;
    }
  }

  left_out->leaf = node.leaf;
  right_out->leaf = node.leaf;
  left_out->split_dims = node.split_dims | (1ull << (split_axis % 64));
  right_out->split_dims = left_out->split_dims;
  for (size_t i = 0; i < n; ++i) {
    (i < split_k ? left_out : right_out)
        ->entries.push_back(std::move(entries[order[i]]));
  }
  return true;
}

Status XTree::BulkLoad(const std::vector<FeatureVector>& points,
                       const std::vector<int>& ids) {
  std::vector<std::vector<int>> members;
  members.reserve(ids.size());
  for (int id : ids) members.push_back({id});
  return BulkLoadGroups(points, members);
}

Status XTree::BulkLoadGroups(const std::vector<FeatureVector>& points,
                             const std::vector<std::vector<int>>& members) {
  if (count_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  if (points.size() != members.size()) {
    return Status::InvalidArgument("points/ids size mismatch");
  }
  for (const FeatureVector& p : points) {
    if (static_cast<int>(p.size()) != dim_) {
      return Status::InvalidArgument("point dimensionality mismatch");
    }
  }
  for (const std::vector<int>& run : members) {
    if (run.empty() || std::adjacent_find(run.begin(), run.end(),
                                          std::greater_equal<int>()) !=
                           run.end()) {
      return Status::InvalidArgument(
          "member runs must be non-empty and strictly ascending");
    }
  }
  if (points.empty()) return Status::OK();

  // Point i's run goes to members_[first[i], first[i] + |members[i]|).
  std::vector<uint32_t> first(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    first[i] = static_cast<uint32_t>(members_.size());
    members_.insert(members_.end(), members[i].begin(), members[i].end());
  }
  nodes_.clear();

  // Pack leaves by recursive widest-dimension median splits until each
  // chunk fits in a (90%-full) leaf: spatially tight, order-coherent.
  const size_t leaf_target = std::max<size_t>(2, LeafCapacity() * 9 / 10);
  std::vector<int> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<int> leaf_nodes;

  struct Range {
    size_t begin, end;
  };
  std::vector<Range> stack{{0, points.size()}};
  // Depth-first so that consecutive leaves stay spatially adjacent.
  while (!stack.empty()) {
    const Range range = stack.back();
    stack.pop_back();
    const size_t n = range.end - range.begin;
    if (n <= leaf_target) {
      Node leaf;
      leaf.leaf = true;
      for (size_t i = range.begin; i < range.end; ++i) {
        Entry e;
        e.lo = points[order[i]];
        e.hi = points[order[i]];
        e.first = first[order[i]];
        e.count = static_cast<uint32_t>(members[order[i]].size());
        e.id = members[order[i]].front();
        leaf.entries.push_back(std::move(e));
      }
      nodes_.push_back(std::move(leaf));
      leaf_nodes.push_back(static_cast<int>(nodes_.size()) - 1);
      continue;
    }
    // Split along the widest dimension at the median.
    int axis = 0;
    double best_extent = -1.0;
    for (int d = 0; d < dim_; ++d) {
      double lo = points[order[range.begin]][d], hi = lo;
      for (size_t i = range.begin; i < range.end; ++i) {
        lo = std::min(lo, points[order[i]][d]);
        hi = std::max(hi, points[order[i]][d]);
      }
      if (hi - lo > best_extent) {
        best_extent = hi - lo;
        axis = d;
      }
    }
    // Split at a multiple of the leaf target so leaves pack (nearly)
    // full instead of the ~65% a plain median recursion would leave.
    const size_t leaves = (n + leaf_target - 1) / leaf_target;
    const size_t mid = range.begin + (leaves / 2) * leaf_target;
    std::nth_element(order.begin() + range.begin, order.begin() + mid,
                     order.begin() + range.end, [&](int a, int b) {
                       return points[a][axis] < points[b][axis];
                     });
    // Push right first so the left half is processed next (DFS order).
    stack.push_back({mid, range.end});
    stack.push_back({range.begin, mid});
  }

  // Build internal levels by grouping consecutive children.
  std::vector<int> level = std::move(leaf_nodes);
  const size_t fanout = std::max<size_t>(2, InternalCapacity() * 9 / 10);
  while (level.size() > 1) {
    std::vector<int> next;
    for (size_t begin = 0; begin < level.size(); begin += fanout) {
      const size_t end = std::min(level.size(), begin + fanout);
      Node parent;
      parent.leaf = false;
      for (size_t i = begin; i < end; ++i) {
        parent.entries.push_back(NodeEntry(level[i]));
      }
      nodes_.push_back(std::move(parent));
      next.push_back(static_cast<int>(nodes_.size()) - 1);
    }
    level = std::move(next);
  }
  root_ = level.front();
  count_ = points.size();
  return Status::OK();
}

double XTree::MinDistToBox(const FeatureVector& q, const Entry& e) const {
  double sum = 0.0;
  for (int d = 0; d < dim_; ++d) {
    const double below = e.lo[d] - q[d];
    const double above = q[d] - e.hi[d];
    const double delta = std::max({below, above, 0.0});
    sum += delta * delta;
  }
  return std::sqrt(sum);
}

void XTree::RangeRecursive(int node_index, const FeatureVector& query,
                           double eps, IoStats* stats,
                           std::vector<std::span<const int>>* out) const {
  ChargeVisit(node_index, stats);
  const Node& node = nodes_[node_index];
  for (const Entry& e : node.entries) {
    if (MinDistToBox(query, e) > eps) continue;
    if (node.leaf) {
      out->push_back(Members(e));
    } else {
      RangeRecursive(e.child, query, eps, stats, out);
    }
  }
}

std::vector<std::span<const int>> XTree::RangeEntries(
    const FeatureVector& query, double eps, IoStats* stats) const {
  std::vector<std::span<const int>> out;
  if (count_ == 0) return out;
  RangeRecursive(root_, query, eps, stats, &out);
  return out;
}

std::vector<int> XTree::RangeQuery(const FeatureVector& query, double eps,
                                   IoStats* stats) const {
  std::vector<int> out;
  for (std::span<const int> run : RangeEntries(query, eps, stats)) {
    out.insert(out.end(), run.begin(), run.end());
  }
  return out;
}

XTree::RankingCursor::RankingCursor(const XTree* tree, FeatureVector query,
                                    IoStats* stats)
    : tree_(tree), query_(std::move(query)), stats_(stats) {
  if (tree_->count_ > 0) {
    heap_.push(QueueItem{0.0, tree_->root_, -1});
  }
}

void XTree::RankingCursor::Settle() {
  if (heap_.empty() || heap_.top().node < 0) return;  // nothing to expand
  const Stopwatch watch;
  while (!heap_.empty() && heap_.top().node >= 0) {
    const QueueItem item = heap_.top();
    heap_.pop();
    tree_->ChargeVisit(item.node, stats_);
    const Node& node = tree_->nodes_[item.node];
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Entry& e = node.entries[i];
      const double d = tree_->MinDistToBox(query_, e);
      heap_.push(node.leaf ? QueueItem{d, -1 - item.node, static_cast<int>(i)}
                           : QueueItem{d, e.child, -1});
    }
  }
  expansion_seconds_ += watch.ElapsedSeconds();
}

bool XTree::RankingCursor::HasNext() {
  Settle();
  return !heap_.empty();
}

double XTree::RankingCursor::NextDistance() {
  Settle();
  return heap_.empty() ? kInf : heap_.top().distance;
}

RankedEntry XTree::RankingCursor::Next() {
  Settle();
  assert(!heap_.empty());
  const QueueItem item = heap_.top();
  heap_.pop();
  return RankedEntry{
      item.distance,
      tree_->Members(tree_->nodes_[-1 - item.node].entries[item.entry])};
}

XTree::RankingCursor XTree::Rank(const FeatureVector& query,
                                 IoStats* stats) const {
  return RankingCursor(this, query, stats);
}

std::vector<Neighbor> XTree::KnnQuery(const FeatureVector& query, int k,
                                      IoStats* stats) const {
  std::vector<Neighbor> result;
  RankingCursor cursor = Rank(query, stats);
  while (static_cast<int>(result.size()) < k && cursor.HasNext()) {
    const RankedEntry entry = cursor.Next();
    for (int id : entry.members) {
      if (static_cast<int>(result.size()) == k) break;
      result.push_back({id, entry.distance});
    }
  }
  return result;
}

Status XTree::Validate() const {
  if (count_ == 0) return Status::OK();
  size_t reachable = 0;
  std::vector<int> ids;  // every member id reached
  int leaf_depth = -1;
  // (node, depth, box from the parent entry; root has no parent box)
  struct Item {
    int node;
    int depth;
    bool has_box;
    FeatureVector lo, hi;
  };
  std::vector<Item> stack{{root_, 1, false, {}, {}}};
  while (!stack.empty()) {
    const Item item = std::move(stack.back());
    stack.pop_back();
    const Node& node = nodes_[item.node];
    if (node.entries.empty()) {
      return Status::Internal("empty node " + std::to_string(item.node));
    }
    if (node.entries.size() > NodeCapacity(node)) {
      return Status::Internal("node " + std::to_string(item.node) +
                              " exceeds its capacity");
    }
    for (const Entry& e : node.entries) {
      if (item.has_box) {
        for (int d = 0; d < dim_; ++d) {
          if (e.lo[d] < item.lo[d] - 1e-12 || e.hi[d] > item.hi[d] + 1e-12) {
            return Status::Internal("entry box escapes parent box in node " +
                                    std::to_string(item.node));
          }
        }
      }
      if (node.leaf) {
        ++reachable;
        for (int d = 0; d < dim_; ++d) {
          if (e.lo[d] != e.hi[d]) {
            return Status::Internal("leaf entry is not a point");
          }
        }
        if (e.count == 0 || e.first > members_.size() ||
            e.count > members_.size() - e.first) {
          return Status::Internal("leaf entry member run out of range");
        }
        const std::span<const int> run = Members(e);
        if (run.front() != e.id ||
            std::adjacent_find(run.begin(), run.end(),
                               std::greater_equal<int>()) != run.end()) {
          return Status::Internal("member run not strictly ascending from "
                                  "its entry id");
        }
        ids.insert(ids.end(), run.begin(), run.end());
      } else {
        stack.push_back({e.child, item.depth + 1, true, e.lo, e.hi});
      }
    }
    if (node.leaf) {
      if (leaf_depth == -1) leaf_depth = item.depth;
      if (leaf_depth != item.depth) {
        return Status::Internal("leaves at different depths");
      }
    }
  }
  if (reachable != count_) {
    return Status::Internal("reachable points " + std::to_string(reachable) +
                            " != size " + std::to_string(count_));
  }
  std::sort(ids.begin(), ids.end());
  if (ids.size() != members_.size() ||
      std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::Internal("stored ids are not reachable exactly once");
  }
  return Status::OK();
}

std::vector<int> XTree::LeafOrder() const {
  std::vector<int> order;
  order.reserve(members_.size());
  for (std::span<const int> run : LeafEntries()) {
    order.insert(order.end(), run.begin(), run.end());
  }
  return order;
}

std::vector<std::span<const int>> XTree::LeafEntries() const {
  std::vector<std::span<const int>> order;
  if (count_ == 0) return order;
  order.reserve(count_);
  std::vector<int> stack{root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.leaf) {
      for (const Entry& e : node.entries) order.push_back(Members(e));
    } else {
      // Children pushed last-first so the first child is expanded next.
      for (auto it = node.entries.rbegin(); it != node.entries.rend(); ++it) {
        stack.push_back(it->child);
      }
    }
  }
  return order;
}

int XTree::height() const {
  int h = 1;
  int current = root_;
  while (!nodes_[current].leaf) {
    ++h;
    current = nodes_[current].entries.front().child;
  }
  return h;
}

size_t XTree::supernode_count() const {
  size_t n = 0;
  for (const Node& node : nodes_) n += node.supernode_multiple > 1 ? 1 : 0;
  return n;
}

size_t XTree::total_pages() const {
  size_t pages = 0;
  for (const Node& node : nodes_) pages += NodePages(node);
  return pages;
}

}  // namespace vsim

// Persistence for XTree (see XTree::Save/Load).
#include <cstring>
#include <fstream>

#include "vsim/common/binary_io.h"
#include "vsim/index/xtree.h"

namespace vsim {

namespace {
constexpr char kMagic[8] = {'V', 'S', 'X', 'T', 'R', 'E', '0', '1'};
}  // namespace

Status XTree::Save(const std::string& path) const {
  if (grouped() || point_error_ != 0.0) {
    return Status::FailedPrecondition(
        "the X-tree file stores one id per leaf entry and exact points; "
        "this tree has member runs or a point error");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  PutI32(out, dim_);
  PutU64(out, options_.page_size_bytes);
  PutDouble(out, options_.max_overlap);
  PutDouble(out, options_.min_fanout);
  PutI32(out, root_);
  PutU64(out, count_);
  PutU64(out, nodes_.size());
  for (const Node& node : nodes_) {
    PutU32(out, node.leaf ? 1 : 0);
    PutI32(out, node.supernode_multiple);
    PutU64(out, node.split_dims);
    PutU32(out, static_cast<uint32_t>(node.entries.size()));
    for (const Entry& e : node.entries) {
      PutDoubleVector(out, e.lo);
      PutDoubleVector(out, e.hi);
      PutI32(out, e.child);
      PutI32(out, e.id);
    }
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

StatusOr<XTree> XTree::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  char magic[sizeof(kMagic)];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a vsim X-tree file");
  }
  int32_t dim = 0;
  XTreeOptions options;
  uint64_t page_size = 0;
  if (!GetI32(in, &dim) || !GetU64(in, &page_size) ||
      !GetDouble(in, &options.max_overlap) ||
      !GetDouble(in, &options.min_fanout)) {
    return Status::IOError("truncated X-tree header: " + path);
  }
  options.page_size_bytes = static_cast<size_t>(page_size);
  if (dim < 1 || dim > 4096) {
    return Status::InvalidArgument("corrupt dimensionality in " + path);
  }
  XTree tree(dim, options);
  tree.nodes_.clear();
  int32_t root = 0;
  uint64_t count = 0, node_count = 0;
  if (!GetI32(in, &root) || !GetU64(in, &count) || !GetU64(in, &node_count) ||
      node_count > (1ull << 32)) {
    return Status::IOError("truncated X-tree metadata: " + path);
  }
  tree.root_ = root;
  tree.count_ = static_cast<size_t>(count);
  tree.nodes_.reserve(node_count);
  for (uint64_t n = 0; n < node_count; ++n) {
    Node node;
    uint32_t leaf = 0, entries = 0;
    uint64_t split_dims = 0;
    if (!GetU32(in, &leaf) || !GetI32(in, &node.supernode_multiple) ||
        !GetU64(in, &split_dims) || !GetU32(in, &entries) ||
        entries > (1u << 24)) {
      return Status::IOError("truncated X-tree node: " + path);
    }
    node.leaf = leaf != 0;
    node.split_dims = split_dims;
    node.entries.resize(entries);
    for (Entry& e : node.entries) {
      if (!GetDoubleVector(in, &e.lo) || !GetDoubleVector(in, &e.hi) ||
          !GetI32(in, &e.child) || !GetI32(in, &e.id)) {
        return Status::IOError("truncated X-tree entry: " + path);
      }
      if (static_cast<int>(e.lo.size()) != dim ||
          static_cast<int>(e.hi.size()) != dim) {
        return Status::InvalidArgument("corrupt entry dimensionality in " +
                                       path);
      }
      if (node.leaf) {
        e.first = static_cast<uint32_t>(tree.members_.size());
        e.count = 1;
        tree.members_.push_back(e.id);
      }
    }
    tree.nodes_.push_back(std::move(node));
  }
  if (tree.root_ < 0 || tree.root_ >= static_cast<int>(tree.nodes_.size())) {
    return Status::InvalidArgument("corrupt root pointer in " + path);
  }
  VSIM_RETURN_NOT_OK(tree.Validate());
  return tree;
}

}  // namespace vsim

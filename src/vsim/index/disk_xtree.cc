#include "vsim/index/disk_xtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>

namespace vsim {

namespace {

constexpr char kMagic[8] = {'V', 'S', 'D', 'X', 'T', 'R', '0', '1'};

// --- little-endian buffer helpers ----------------------------------------

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  bool U32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, 8);
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

Status DiskXTree::Write(const XTree& tree, const std::string& path,
                        size_t page_size) {
  if (tree.grouped()) {
    return Status::FailedPrecondition(
        "DiskXTree stores one id per leaf entry; this tree has member runs");
  }
  VSIM_ASSIGN_OR_RETURN(PagedFile file, PagedFile::Create(path, page_size));

  // Serialize every node up front to know its size.
  const int dim = tree.dim_;
  std::vector<std::string> blobs;
  blobs.reserve(tree.nodes_.size());
  for (const XTree::Node& node : tree.nodes_) {
    std::string blob;
    PutU32(&blob, node.leaf ? 1 : 0);
    PutU32(&blob, static_cast<uint32_t>(node.entries.size()));
    for (const XTree::Entry& e : node.entries) {
      if (node.leaf) {
        PutU32(&blob, static_cast<uint32_t>(e.id));
        for (int d = 0; d < dim; ++d) PutF64(&blob, e.lo[d]);
      } else {
        PutU32(&blob, static_cast<uint32_t>(e.child));
        for (int d = 0; d < dim; ++d) PutF64(&blob, e.lo[d]);
        for (int d = 0; d < dim; ++d) PutF64(&blob, e.hi[d]);
      }
    }
    blobs.push_back(std::move(blob));
  }

  // Header + directory blob.
  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(&header, static_cast<uint32_t>(dim));
  PutU32(&header, static_cast<uint32_t>(tree.root_));
  PutU64(&header, tree.count_);
  PutU64(&header, blobs.size());
  const size_t dir_fixed = header.size() + blobs.size() * 16;
  const size_t dir_pages = (dir_fixed + page_size - 1) / page_size;

  // Node pages start right after the directory pages.
  uint64_t next_page = 1 + dir_pages;
  for (const std::string& blob : blobs) {
    const uint64_t pages =
        std::max<uint64_t>(1, (blob.size() + page_size - 1) / page_size);
    PutU64(&header, next_page);
    PutU32(&header, static_cast<uint32_t>(pages));
    PutU32(&header, static_cast<uint32_t>(blob.size()));
    next_page += pages;
  }

  // Write directory pages then node pages (pages allocate sequentially,
  // so ids match the plan above).
  std::vector<char> page(page_size, 0);
  auto write_blob = [&](const std::string& blob) -> Status {
    for (size_t offset = 0; offset < blob.size() || offset == 0;
         offset += page_size) {
      VSIM_ASSIGN_OR_RETURN(PageId id, file.Allocate());
      std::fill(page.begin(), page.end(), 0);
      const size_t chunk = std::min(page_size, blob.size() - offset);
      if (blob.size() > offset) {
        std::memcpy(page.data(), blob.data() + offset, chunk);
      }
      VSIM_RETURN_NOT_OK(file.Write(id, page.data()));
      if (offset + page_size >= blob.size()) break;
    }
    return Status::OK();
  };
  // Directory occupies exactly dir_pages pages.
  {
    for (size_t p = 0; p < dir_pages; ++p) {
      VSIM_ASSIGN_OR_RETURN(PageId id, file.Allocate());
      std::fill(page.begin(), page.end(), 0);
      const size_t offset = p * page_size;
      if (offset < header.size()) {
        std::memcpy(page.data(), header.data() + offset,
                    std::min(page_size, header.size() - offset));
      }
      VSIM_RETURN_NOT_OK(file.Write(id, page.data()));
    }
  }
  for (const std::string& blob : blobs) {
    VSIM_RETURN_NOT_OK(write_blob(blob));
  }
  return file.Sync();
}

StatusOr<DiskXTree> DiskXTree::Open(const std::string& path,
                                    size_t pool_pages) {
  DiskXTree tree;
  VSIM_ASSIGN_OR_RETURN(PagedFile file, PagedFile::Open(path));
  tree.file_ = std::make_unique<PagedFile>(std::move(file));
  const size_t page_size = tree.file_->page_size();

  // Read the directory with plain sequential reads (setup cost).
  std::string header;
  std::vector<char> page(page_size);
  for (PageId id = 1; id <= tree.file_->page_count(); ++id) {
    VSIM_RETURN_NOT_OK(tree.file_->Read(id, page.data()));
    header.append(page.data(), page_size);
    // Stop once we can know the directory size.
    if (header.size() >= 32) {
      Reader probe(header.data() + 8, header.size() - 8);
      uint32_t dim, root;
      uint64_t count, nodes;
      if (!probe.U32(&dim) || !probe.U32(&root) || !probe.U64(&count) ||
          !probe.U64(&nodes)) {
        return Status::IOError("unreadable directory in " + path);
      }
      const size_t need = 32 + nodes * 16;
      if (header.size() >= need) break;
    }
  }
  if (header.size() < 32 ||
      std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a vsim disk X-tree");
  }
  Reader reader(header.data() + 8, header.size() - 8);
  uint32_t dim = 0, root = 0;
  uint64_t count = 0, nodes = 0;
  // The node count sizes the directory allocation, so bound it by what
  // the file could actually hold (16 directory bytes per node) before
  // resizing -- a corrupt count must not turn into a huge resize.
  const uint64_t file_bytes =
      (1 + tree.file_->page_count()) * static_cast<uint64_t>(page_size);
  if (!reader.U32(&dim) || !reader.U32(&root) || !reader.U64(&count) ||
      !reader.U64(&nodes) || dim == 0 || dim > 4096 ||
      nodes > (file_bytes - 32) / 16) {
    return Status::InvalidArgument("corrupt disk X-tree header: " + path);
  }
  tree.dim_ = static_cast<int>(dim);
  tree.root_ = root;
  tree.count_ = static_cast<size_t>(count);
  tree.directory_.resize(nodes);
  for (NodeRef& ref : tree.directory_) {
    uint64_t first = 0;
    uint32_t pages = 0, bytes = 0;
    if (!reader.U64(&first) || !reader.U32(&pages) || !reader.U32(&bytes)) {
      return Status::IOError("truncated disk X-tree directory: " + path);
    }
    // Every node's pages must lie inside the file and be consistent
    // with its byte length (FetchNode's chunk arithmetic relies on
    // bytes <= pages * page_size).
    if (first == 0 || pages == 0 || pages > tree.file_->page_count() ||
        first > tree.file_->page_count() - pages + 1 ||
        static_cast<uint64_t>(bytes) > static_cast<uint64_t>(pages) *
                                           page_size) {
      return Status::InvalidArgument("corrupt disk X-tree directory: " + path);
    }
    ref.first_page = first;
    ref.pages = pages;
    ref.bytes = bytes;
  }
  if (root >= nodes && count > 0) {
    return Status::InvalidArgument("corrupt root pointer: " + path);
  }
  tree.pool_ = std::make_unique<cache::ShardedBufferPool>(tree.file_.get(),
                                                          pool_pages);
  return tree;
}

StatusOr<DiskXTree::DiskNode> DiskXTree::FetchNode(uint32_t node_index,
                                                   IoStats* stats) const {
  // Child pointers come off disk, so they are untrusted until checked:
  // a corrupt inner node must not index past the directory.
  if (node_index >= directory_.size()) {
    return Status::Internal("corrupt child pointer");
  }
  const NodeRef& ref = directory_[node_index];
  const size_t page_size = file_->page_size();
  std::string blob;
  blob.reserve(ref.bytes);
  // One pin at a time, released as soon as the chunk is copied: a
  // multi-page supernode must not demand `pages` frames of one shard at
  // once (tiny pools would spuriously exhaust). Misses are charged per
  // call (a pool-wide counter delta would misattribute concurrent
  // queries' misses).
  size_t misses = 0;
  for (uint32_t p = 0; p < ref.pages; ++p) {
    bool missed = false;
    VSIM_ASSIGN_OR_RETURN(
        cache::PageHandle handle,
        pool_->Fetch(ref.first_page + p, cache::PageTier::kCold, &missed));
    const size_t chunk =
        std::min(page_size, static_cast<size_t>(ref.bytes) - p * page_size);
    blob.append(handle.data(), chunk);
    misses += missed ? 1 : 0;
  }
  if (stats != nullptr) {
    stats->AddPageAccesses(misses);
    stats->AddBytesRead(ref.bytes);
  }

  DiskNode node;
  Reader reader(blob.data(), blob.size());
  uint32_t leaf = 0, entries = 0;
  if (!reader.U32(&leaf) || !reader.U32(&entries)) {
    return Status::Internal("corrupt node blob");
  }
  node.leaf = leaf != 0;
  if (!node.leaf) {
    // Promote the inner node's pages to the hot tier (pin-free retier;
    // a page already evicted between the copy and here is simply left
    // to re-enter cold on its next fetch). The filter step's working
    // set stays resident while leaf pages churn in the cold tier.
    for (uint32_t p = 0; p < ref.pages; ++p) {
      pool_->Retier(ref.first_page + p, cache::PageTier::kHot);
    }
  }
  node.entries.resize(entries);
  for (DiskEntry& e : node.entries) {
    uint32_t id_or_child = 0;
    if (!reader.U32(&id_or_child)) return Status::Internal("corrupt entry");
    e.lo.resize(dim_);
    for (int d = 0; d < dim_; ++d) {
      if (!reader.F64(&e.lo[d])) return Status::Internal("corrupt entry");
    }
    if (node.leaf) {
      e.id = static_cast<int32_t>(id_or_child);
    } else {
      e.child = static_cast<int32_t>(id_or_child);
      e.hi.resize(dim_);
      for (int d = 0; d < dim_; ++d) {
        if (!reader.F64(&e.hi[d])) return Status::Internal("corrupt entry");
      }
    }
  }
  return node;
}

double DiskXTree::MinDistToEntry(const FeatureVector& q,
                                 const DiskEntry& e) const {
  double sum = 0.0;
  for (int d = 0; d < dim_; ++d) {
    const double lo = e.lo[d];
    const double hi = e.hi.empty() ? e.lo[d] : e.hi[d];
    const double delta = std::max({lo - q[d], q[d] - hi, 0.0});
    sum += delta * delta;
  }
  return std::sqrt(sum);
}

std::vector<int> DiskXTree::RangeQuery(const FeatureVector& query, double eps,
                                       IoStats* stats) const {
  std::vector<int> out;
  if (count_ == 0) return out;
  std::vector<uint32_t> stack{root_};
  // A healthy tree visits each node at most once per query; a corrupt
  // file whose child pointers form a cycle would otherwise traverse
  // forever (and grow the stack without bound).
  size_t fetch_budget = directory_.size();
  while (!stack.empty()) {
    const uint32_t index = stack.back();
    stack.pop_back();
    if (fetch_budget-- == 0) return out;  // cyclic corrupt file
    StatusOr<DiskNode> node = FetchNode(index, stats);
    if (!node.ok()) return out;  // corrupt file: return what we have
    for (const DiskEntry& e : node->entries) {
      if (MinDistToEntry(query, e) > eps) continue;
      if (node->leaf) {
        out.push_back(e.id);
      } else {
        stack.push_back(static_cast<uint32_t>(e.child));
      }
    }
  }
  return out;
}

std::vector<Neighbor> DiskXTree::KnnQuery(const FeatureVector& query, int k,
                                          IoStats* stats) const {
  std::vector<Neighbor> result;
  if (count_ == 0 || k <= 0) return result;
  struct Item {
    double distance;
    int32_t node;  // -1 for points
    int32_t id;
    bool operator<(const Item& o) const { return distance > o.distance; }
  };
  std::priority_queue<Item> heap;
  heap.push({0.0, static_cast<int32_t>(root_), -1});
  // Same cycle guard as RangeQuery: each node legitimately expands at
  // most once per query.
  size_t fetch_budget = directory_.size();
  while (!heap.empty() && static_cast<int>(result.size()) < k) {
    const Item item = heap.top();
    heap.pop();
    if (item.node < 0) {
      result.push_back({item.id, item.distance});
      continue;
    }
    if (fetch_budget-- == 0) break;  // cyclic corrupt file
    StatusOr<DiskNode> node = FetchNode(static_cast<uint32_t>(item.node),
                                        stats);
    if (!node.ok()) break;
    for (const DiskEntry& e : node->entries) {
      const double d = MinDistToEntry(query, e);
      heap.push(node->leaf ? Item{d, -1, e.id} : Item{d, e.child, -1});
    }
  }
  return result;
}

}  // namespace vsim

#include "vsim/storage/vector_set_store.h"

#include <cstring>

namespace vsim {

namespace {

// Page layout: [u16 record_count][records...], each record
// [u16 payload_bytes][payload]. Records never span pages.
constexpr size_t kPageHeader = 2;
constexpr size_t kRecordHeader = 2;

void PutU16(char* p, uint16_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>(v >> 8);
}

uint16_t ReadU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint16_t>(static_cast<unsigned char>(p[1])) << 8;
}

// Record payload: [u16 n][u16 dim][n*dim doubles].
size_t SerializedBytes(const VectorSet& set) {
  return 4 + set.size() * set.dim() * sizeof(double);
}

void Serialize(const VectorSet& set, char* out) {
  PutU16(out, static_cast<uint16_t>(set.size()));
  PutU16(out + 2, static_cast<uint16_t>(set.dim()));
  char* p = out + 4;
  for (const FeatureVector& v : set.vectors) {
    std::memcpy(p, v.data(), v.size() * sizeof(double));
    p += v.size() * sizeof(double);
  }
}

// Decodes a record payload into `*out` (see VectorSetStore::GetFlat).
StatusOr<FlatVectorSet> Deserialize(const char* data, size_t bytes,
                                    std::vector<double>* out) {
  if (bytes < 4) return Status::Internal("corrupt vector set record");
  const uint16_t n = ReadU16(data);
  const uint16_t dim = ReadU16(data + 2);
  const size_t values = static_cast<size_t>(n) * dim;
  if (bytes != 4 + values * sizeof(double)) {
    return Status::Internal("vector set record size mismatch");
  }
  out->resize(values);
  if (values > 0) std::memcpy(out->data(), data + 4, values * sizeof(double));
  return FlatVectorSet{out->data(), n, dim};
}

}  // namespace

StatusOr<VectorSetStore> VectorSetStore::Create(const std::string& path,
                                                size_t page_size,
                                                size_t pool_pages) {
  VectorSetStore store;
  VSIM_ASSIGN_OR_RETURN(PagedFile file, PagedFile::Create(path, page_size));
  store.file_ = std::make_unique<PagedFile>(std::move(file));
  store.pool_ = std::make_unique<cache::ShardedBufferPool>(store.file_.get(),
                                                           pool_pages);
  return store;
}

StatusOr<VectorSetStore> VectorSetStore::Open(const std::string& path,
                                              size_t pool_pages) {
  VectorSetStore store;
  VSIM_ASSIGN_OR_RETURN(PagedFile file, PagedFile::Open(path));
  store.file_ = std::make_unique<PagedFile>(std::move(file));
  store.pool_ = std::make_unique<cache::ShardedBufferPool>(store.file_.get(),
                                                           pool_pages);
  // Rebuild the directory with one sequential pass.
  for (PageId page = 1; page <= store.file_->page_count(); ++page) {
    VSIM_ASSIGN_OR_RETURN(cache::PageHandle handle,
                          store.pool_->Fetch(page));
    const char* data = handle.data();
    const uint16_t records = ReadU16(data);
    size_t offset = kPageHeader;
    for (uint16_t r = 0; r < records; ++r) {
      // Bounds-check the record header *before* reading it: a corrupt
      // record count or payload length must produce a Status, not an
      // out-of-bounds read of the page buffer (UBSan/ASan regression,
      // see CorruptFileTest).
      if (offset + kRecordHeader > store.file_->page_size()) {
        return Status::Internal("corrupt page " + std::to_string(page));
      }
      const uint16_t bytes = ReadU16(data + offset);
      offset += kRecordHeader;
      if (offset + bytes > store.file_->page_size()) {
        return Status::Internal("corrupt page " + std::to_string(page));
      }
      store.directory_.push_back(
          {page, static_cast<uint32_t>(offset), bytes});
      offset += bytes;
    }
    store.tail_page_ = page;
    store.tail_used_ = offset;
  }
  return store;
}

StatusOr<VectorSetStore::RecordRef> VectorSetStore::AppendRecord(
    const char* data, size_t bytes) {
  const size_t needed = kRecordHeader + bytes;
  const size_t capacity = file_->page_size();
  if (needed + kPageHeader > capacity) {
    return Status::InvalidArgument("record larger than page payload");
  }
  if (tail_page_ == 0 || tail_used_ + needed > capacity) {
    VSIM_ASSIGN_OR_RETURN(cache::PageHandle fresh, pool_->Allocate());
    fresh.MarkDirty();
    PutU16(fresh.data(), 0);
    tail_page_ = fresh.page();
    tail_used_ = kPageHeader;
  }
  VSIM_ASSIGN_OR_RETURN(cache::PageHandle handle,
                        pool_->Fetch(tail_page_));
  char* page = handle.data();
  PutU16(page + tail_used_, static_cast<uint16_t>(bytes));
  std::memcpy(page + tail_used_ + kRecordHeader, data, bytes);
  PutU16(page, static_cast<uint16_t>(ReadU16(page) + 1));
  handle.MarkDirty();
  RecordRef ref{tail_page_,
                static_cast<uint32_t>(tail_used_ + kRecordHeader),
                static_cast<uint32_t>(bytes)};
  tail_used_ += needed;
  return ref;
}

StatusOr<int> VectorSetStore::Append(const VectorSet& set) {
  const size_t bytes = SerializedBytes(set);
  std::vector<char> buffer(bytes);
  Serialize(set, buffer.data());
  VSIM_ASSIGN_OR_RETURN(RecordRef ref, AppendRecord(buffer.data(), bytes));
  directory_.push_back(ref);
  return static_cast<int>(directory_.size()) - 1;
}

StatusOr<FlatVectorSet> VectorSetStore::GetFlat(int id,
                                                std::vector<double>* buffer,
                                                IoStats* stats) const {
  if (id < 0 || static_cast<size_t>(id) >= directory_.size()) {
    return Status::OutOfRange("object id out of range");
  }
  const RecordRef& ref = directory_[id];
  // Charge the paper's page cost for THIS call's miss only: a global
  // miss-counter delta would misattribute concurrent callers' misses.
  bool missed = false;
  VSIM_ASSIGN_OR_RETURN(
      cache::PageHandle handle,
      pool_->Fetch(ref.page, cache::PageTier::kCold, &missed));
  if (stats != nullptr) {
    if (missed) stats->AddPageAccesses(1);
    stats->AddBytesRead(ref.bytes);
  }
  return Deserialize(handle.data() + ref.offset, ref.bytes, buffer);
}

StatusOr<VectorSet> VectorSetStore::Get(int id, IoStats* stats) const {
  std::vector<double> values;
  VSIM_ASSIGN_OR_RETURN(FlatVectorSet flat, GetFlat(id, &values, stats));
  VectorSet set;
  set.vectors.reserve(flat.size);
  for (size_t i = 0; i < flat.size; ++i) {
    const double* v = flat.data + i * flat.dim;
    set.vectors.emplace_back(v, v + flat.dim);
  }
  return set;
}

Status VectorSetStore::Flush() { return pool_->FlushAll(); }

}  // namespace vsim

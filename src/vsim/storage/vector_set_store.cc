#include "vsim/storage/vector_set_store.h"

#include <cassert>
#include <climits>
#include <cstdint>
#include <cstring>

namespace vsim {

namespace {

// Layout (see the header): page 1 is the store header, data pages
// follow with [u16 record_count][records...], each record
// [u32 object id][u16 payload_bytes][payload].
constexpr PageId kHeaderPage = 1;
constexpr char kMagic[8] = {'V', 'S', 'S', 'T', 'O', 'R', '0', '1'};
constexpr size_t kPageHeader = 2;
constexpr size_t kRecordHeader = 6;

template <typename T>
void PutLE(char* p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    p[i] = static_cast<char>(v >> (8 * i));
  }
}

template <typename T>
T ReadLE(const char* p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>(v | static_cast<T>(static_cast<unsigned char>(p[i]))
                               << (8 * i));
  }
  return v;
}

// Record payload: [u16 n][u16 dim][n*dim doubles].
size_t SerializedBytes(const VectorSet& set) {
  return 4 + set.size() * set.dim() * sizeof(double);
}

void Serialize(const VectorSet& set, char* out) {
  PutLE<uint16_t>(out, static_cast<uint16_t>(set.size()));
  PutLE<uint16_t>(out + 2, static_cast<uint16_t>(set.dim()));
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
  const uint16_t n = ReadLE<uint16_t>(data);
  const uint16_t dim = ReadLE<uint16_t>(data + 2);
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
  // The header page is written now with zero objects; Flush records the
  // count once the records are checked.
  VSIM_ASSIGN_OR_RETURN(cache::PageHandle header, store.pool_->Allocate());
  assert(header.page() == kHeaderPage);  // a fresh file's first page
  std::memcpy(header.data(), kMagic, sizeof(kMagic));
  PutLE<uint32_t>(header.data() + sizeof(kMagic), 0);
  header.MarkDirty();
  return store;
}

StatusOr<VectorSetStore> VectorSetStore::Open(const std::string& path,
                                              size_t pool_pages) {
  VectorSetStore store;
  VSIM_ASSIGN_OR_RETURN(PagedFile file, PagedFile::Open(path));
  store.file_ = std::make_unique<PagedFile>(std::move(file));
  store.pool_ = std::make_unique<cache::ShardedBufferPool>(store.file_.get(),
                                                           pool_pages);
  const size_t page_size = store.file_->page_size();  // >= 256
  if (store.file_->page_count() < kHeaderPage) {
    return Status::Internal("not a vector set store: no header page");
  }
  uint32_t objects = 0;
  {
    VSIM_ASSIGN_OR_RETURN(cache::PageHandle header,
                          store.pool_->Fetch(kHeaderPage));
    if (std::memcmp(header.data(), kMagic, sizeof(kMagic)) != 0) {
      return Status::Internal(
          "not a vector set store: bad header magic (a store written "
          "before records carried their object ids?)");
    }
    objects = ReadLE<uint32_t>(header.data() + sizeof(kMagic));
  }
  if (objects > INT_MAX) {
    return Status::Internal("store header object count out of range");
  }
  // One sequential pass collects the records in page order.
  std::vector<RecordRef> records;
  for (PageId page = kHeaderPage + 1; page <= store.file_->page_count();
       ++page) {
    VSIM_ASSIGN_OR_RETURN(cache::PageHandle handle,
                          store.pool_->Fetch(page));
    const char* data = handle.data();
    const uint16_t count = ReadLE<uint16_t>(data);
    size_t offset = kPageHeader;
    for (uint16_t r = 0; r < count; ++r) {
      // Bounds-check the record header *before* reading it: a corrupt
      // record count or payload length must produce a Status, not an
      // out-of-bounds read of the page buffer (UBSan/ASan regression,
      // see CorruptFileTest).
      if (offset + kRecordHeader > page_size) {
        return Status::Internal("corrupt page " + std::to_string(page));
      }
      const uint32_t id = ReadLE<uint32_t>(data + offset);
      const uint16_t bytes = ReadLE<uint16_t>(data + offset + 4);
      offset += kRecordHeader;
      if (offset + bytes > page_size) {
        return Status::Internal("corrupt page " + std::to_string(page));
      }
      if (id >= objects) {
        return Status::Internal("object id " + std::to_string(id) +
                                " out of range on page " +
                                std::to_string(page) + " (store holds " +
                                std::to_string(objects) + " objects)");
      }
      store.page_order_.push_back(static_cast<int>(id));
      records.push_back({page, static_cast<uint32_t>(offset), bytes});
      offset += bytes;
    }
    store.tail_page_ = page;
    store.tail_used_ = offset;
  }
  // Every id is below `objects`, so as many records as objects with no
  // duplicate means each id appears exactly once. (The directory is
  // sized only after the count check: a corrupt header cannot make it
  // larger than the records actually read.)
  if (records.size() != objects) {
    return Status::Internal(
        "store header counts " + std::to_string(objects) +
        " objects but its pages hold " + std::to_string(records.size()) +
        " records");
  }
  store.directory_.resize(objects);
  for (size_t i = 0; i < records.size(); ++i) {
    RecordRef& slot = store.directory_[store.page_order_[i]];
    if (slot.page != 0) {
      return Status::Internal("duplicate object id " +
                              std::to_string(store.page_order_[i]));
    }
    slot = records[i];
  }
  return store;
}

StatusOr<VectorSetStore::RecordRef> VectorSetStore::AppendRecord(
    const char* data, size_t bytes) {
  const size_t capacity = file_->page_size();
  if (bytes + kPageHeader > capacity) {
    return Status::InvalidArgument("record larger than page payload");
  }
  if (tail_page_ == 0 || tail_used_ + bytes > capacity) {
    VSIM_ASSIGN_OR_RETURN(cache::PageHandle fresh, pool_->Allocate());
    fresh.MarkDirty();
    PutLE<uint16_t>(fresh.data(), 0);
    tail_page_ = fresh.page();
    tail_used_ = kPageHeader;
  }
  VSIM_ASSIGN_OR_RETURN(cache::PageHandle handle,
                        pool_->Fetch(tail_page_));
  char* page = handle.data();
  std::memcpy(page + tail_used_, data, bytes);
  PutLE<uint16_t>(page, static_cast<uint16_t>(ReadLE<uint16_t>(page) + 1));
  handle.MarkDirty();
  RecordRef ref{tail_page_,
                static_cast<uint32_t>(tail_used_ + kRecordHeader),
                static_cast<uint32_t>(bytes - kRecordHeader)};
  tail_used_ += bytes;
  return ref;
}

Status VectorSetStore::Append(int id, const VectorSet& set) {
  if (id < 0) return Status::InvalidArgument("negative object id");
  const size_t slot = static_cast<size_t>(id);
  if (slot < directory_.size() && directory_[slot].page != 0) {
    return Status::InvalidArgument("object id " + std::to_string(id) +
                                   " is already stored");
  }
  const size_t payload = SerializedBytes(set);
  if (payload > UINT16_MAX) {
    return Status::InvalidArgument("record larger than its length field");
  }
  std::vector<char> record(kRecordHeader + payload);
  PutLE<uint32_t>(record.data(), static_cast<uint32_t>(id));
  PutLE<uint16_t>(record.data() + 4, static_cast<uint16_t>(payload));
  Serialize(set, record.data() + kRecordHeader);
  VSIM_ASSIGN_OR_RETURN(RecordRef ref,
                        AppendRecord(record.data(), record.size()));
  if (slot >= directory_.size()) directory_.resize(slot + 1);
  directory_[slot] = ref;
  page_order_.push_back(id);
  return Status::OK();
}

Status VectorSetStore::Flush() {
  // Duplicates were refused on Append, so there are as many records as
  // directory slots exactly when no id below the highest is missing.
  if (page_order_.size() != directory_.size()) {
    return Status::FailedPrecondition(
        "stored object ids are not 0..n-1: " +
        std::to_string(page_order_.size()) + " records, highest id " +
        std::to_string(directory_.size() - 1));
  }
  {
    VSIM_ASSIGN_OR_RETURN(cache::PageHandle header,
                          pool_->Fetch(kHeaderPage));
    PutLE<uint32_t>(header.data() + sizeof(kMagic),
                    static_cast<uint32_t>(directory_.size()));
    header.MarkDirty();
  }
  return pool_->FlushAll();
}

StatusOr<FlatVectorSet> VectorSetStore::GetFlat(int id,
                                                std::vector<double>* buffer,
                                                IoStats* stats) const {
  if (id < 0 || static_cast<size_t>(id) >= directory_.size()) {
    return Status::OutOfRange("object id out of range");
  }
  const RecordRef& ref = directory_[id];
  if (ref.page == 0) return Status::NotFound("object id not stored");
  // Charge the paper's page cost for THIS call's miss only: a global
  // miss-counter delta would misattribute concurrent callers' misses.
  bool missed = false;
  VSIM_ASSIGN_OR_RETURN(cache::PageHandle handle,
                        pool_->Fetch(ref.page, &missed));
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

}  // namespace vsim

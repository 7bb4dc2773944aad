#include "vsim/net/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace vsim::net {

namespace {

// The wire encodes the enums' underlying values, so a byte at or above
// an enum's count (kNumQueryKinds, kNumQueryStrategies, declared beside
// the enums) is unknown. Strategy values 3 and 4 are retired
// (docs/PROTOCOL.md §3): never reused, so a payload naming either fails
// like any unknown value.
constexpr uint8_t kNumSpanNames =
    static_cast<uint8_t>(vsim::obs::kNumSpanNames);

// Bytes per trace of the stats response's reserved block
// (docs/PROTOCOL.md §7).
constexpr size_t kReservedTraceBytes = 12;

// --- in-place frame writer -------------------------------------------

// Writes one frame at the end of *out: the header with a zero length,
// the payload fields in little-endian order, and, in Finish, the
// payload length patched in. Fields are staged in a block on the stack
// and appended a block at a time, so a field costs a few stores rather
// than a string append; `payload_hint` is reserved up front and need
// not be exact.
class FrameWriter {
 public:
  FrameWriter(FrameType type, uint8_t flags, uint64_t request_id,
              size_t payload_hint, std::string* out)
      : out_(out), start_(out->size()) {
    out->reserve(start_ + kFrameHeaderBytes + payload_hint);
    U32(kWireMagic);
    U16(kWireVersion);
    U8(static_cast<uint8_t>(type));
    U8(flags);
    U64(request_id);
    U32(0);  // payload length, patched by Finish
  }
  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  void U8(uint8_t v) { Put<1>(v); }
  void U16(uint16_t v) { Put<2>(v); }
  void U32(uint32_t v) { Put<4>(v); }
  void U64(uint64_t v) { Put<8>(v); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Doubles(const std::vector<double>& v) {
    U32(static_cast<uint32_t>(v.size()));
    for (const double d : v) F64(d);
  }
  // The first `n` bytes of `bytes`.
  void Bytes(const std::string& bytes, size_t n) {
    Flush();
    out_->append(bytes, 0, n);
  }
  void Zeros(size_t n) {
    Flush();
    out_->append(n, '\0');
  }

  void Finish() {
    Flush();
    // The length is the header's last field.
    const size_t payload = out_->size() - start_ - kFrameHeaderBytes;
    const size_t length_at = start_ + kFrameHeaderBytes - 4;
    for (int i = 0; i < 4; ++i) {
      (*out_)[length_at + i] = static_cast<char>(payload >> (8 * i));
    }
  }

 private:
  template <int kBytes>
  void Put(uint64_t v) {
    if (staged_ + kBytes > sizeof(block_)) Flush();
    for (int i = 0; i < kBytes; ++i) {
      block_[staged_ + i] = static_cast<char>(v >> (8 * i));
    }
    staged_ += kBytes;
  }
  void Flush() {
    out_->append(block_, staged_);
    staged_ = 0;
  }

  std::string* out_;
  size_t start_;  // offset of the frame header in *out_
  size_t staged_ = 0;
  char block_[256];
};

// --- strict bounds-checked cursor ------------------------------------

class WireCursor {
 public:
  WireCursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool U8(uint8_t* v) {
    if (size_ - pos_ < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  bool U16(uint16_t* v) {
    if (size_ - pos_ < 2) return false;
    *v = 0;
    for (int i = 0; i < 2; ++i) {
      *v |= static_cast<uint16_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 2;
    return true;
  }
  bool U32(uint32_t* v) {
    if (size_ - pos_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (size_ - pos_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool I32(int32_t* v) {
    uint32_t u;
    if (!U32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }
  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    // vsim-lint: allow(wire-memcpy) bit-cast from an already bounds-checked u64
    std::memcpy(v, &bits, 8);
    return true;
  }
  bool Bytes(char* dst, size_t n) {
    if (size_ - pos_ < n) return false;
    // vsim-lint: allow(wire-memcpy) the PayloadReader primitive; length is range-checked above
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool Skip(size_t n) {
    if (size_ - pos_ < n) return false;
    pos_ += n;
    return true;
  }

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("truncated ") + what +
                                 " payload");
}

Status Oversized(const char* what, uint64_t count, uint64_t cap) {
  return Status::InvalidArgument(std::string(what) + " count " +
                                 std::to_string(count) + " exceeds wire cap " +
                                 std::to_string(cap));
}

// Reads a u32-length-prefixed double vector, capped *before* resize.
Status GetDoubles(WireCursor* c, std::vector<double>* v, uint32_t cap,
                  const char* what) {
  uint32_t len;
  if (!c->U32(&len)) return Truncated(what);
  if (len > cap) return Oversized(what, len, cap);
  // A claimed length must be backed by actual bytes before allocating.
  if (c->remaining() < static_cast<size_t>(len) * 8) return Truncated(what);
  v->resize(len);
  for (double& d : *v) {
    if (!c->F64(&d)) return Truncated(what);
  }
  return Status::OK();
}

// The encoded size of AppendObjectRepr's block: its counts and values.
size_t ObjectReprBytes(const ObjectRepr& query) {
  size_t values = query.centroid.size() + query.cover_vector.size();
  for (const FeatureVector& v : query.vector_set.vectors) values += v.size();
  return 4 * (query.vector_set.size() + 3) + 8 * values;
}

void AppendObjectRepr(FrameWriter* w, const ObjectRepr& query) {
  w->U32(static_cast<uint32_t>(query.vector_set.size()));
  for (const FeatureVector& v : query.vector_set.vectors) w->Doubles(v);
  w->Doubles(query.centroid);
  w->Doubles(query.cover_vector);
}

Status DecodeObjectRepr(WireCursor* c, ObjectRepr* query) {
  uint32_t sets;
  if (!c->U32(&sets)) return Truncated("query object");
  if (sets > kMaxWireVectors) {
    return Oversized("vector set", sets, kMaxWireVectors);
  }
  query->vector_set.vectors.clear();
  query->vector_set.vectors.reserve(sets);
  for (uint32_t i = 0; i < sets; ++i) {
    FeatureVector v;
    VSIM_RETURN_NOT_OK(GetDoubles(c, &v, kMaxWireDim, "vector"));
    query->vector_set.vectors.push_back(std::move(v));
  }
  VSIM_RETURN_NOT_OK(GetDoubles(c, &query->centroid, kMaxWireDim, "centroid"));
  VSIM_RETURN_NOT_OK(
      GetDoubles(c, &query->cover_vector, kMaxWireDim, "cover vector"));
  return Status::OK();
}

// Chunk body shared by every kResponse frame: a slice of the neighbor
// list followed by a slice of the id list.
void AppendChunkBody(FrameWriter* w, const ServiceResponse& response,
                     size_t neighbor_begin, size_t neighbor_end,
                     size_t id_begin, size_t id_end) {
  w->U32(static_cast<uint32_t>(neighbor_end - neighbor_begin));
  for (size_t i = neighbor_begin; i < neighbor_end; ++i) {
    w->I32(response.neighbors[i].id);
    w->F64(response.neighbors[i].distance);
  }
  w->U32(static_cast<uint32_t>(id_end - id_begin));
  for (size_t i = id_begin; i < id_end; ++i) w->I32(response.ids[i]);
}

}  // namespace

// --- encoding --------------------------------------------------------

void AppendFrame(FrameType type, uint8_t flags, uint64_t request_id,
                 const std::string& payload, std::string* out) {
  FrameWriter w(type, flags, request_id, payload.size(), out);
  w.Bytes(payload, payload.size());
  w.Finish();
}

void AppendRequestFrame(uint64_t request_id, const ServiceRequest& request,
                        const obs::TraceContext& trace, std::string* out) {
  const bool has_query = request.object_id < 0;
  FrameWriter w(FrameType::kRequest, kFlagFinal, request_id,
                56 + (has_query ? ObjectReprBytes(request.query) : 0), out);
  w.U8(static_cast<uint8_t>(request.kind));
  w.U8(static_cast<uint8_t>(request.strategy));
  w.U8(request.with_reflections ? 1 : 0);
  w.U8(has_query ? 1 : 0);
  w.I32(request.object_id);
  w.I32(request.options.k);
  w.F64(request.options.eps);
  w.F64(request.options.timeout_seconds);
  if (has_query) AppendObjectRepr(&w, request.query);
  // Reserved u32 (docs/PROTOCOL.md §3): written as zero, kept so the
  // trace block below stays at its offset for every peer. The
  // ObjectRepr block is self-terminating, so the trailing position is
  // unambiguous.
  w.U32(0);
  // Trailing trace context (docs/PROTOCOL.md §12): the distributed
  // trace identity this request belongs to, zero when untraced.
  // Decoders that predate the block stop above and mint server-side.
  w.U64(trace.trace_hi);
  w.U64(trace.trace_lo);
  w.U64(trace.parent_span_id);
  w.Finish();
}

void AppendStatusFrame(uint64_t request_id, const Status& status,
                       std::string* out) {
  const std::string& message = status.message();
  const size_t message_bytes =
      std::min<size_t>(message.size(), kMaxWireMessageBytes);
  FrameWriter w(FrameType::kStatus, kFlagFinal, request_id, 5 + message_bytes,
                out);
  w.U8(static_cast<uint8_t>(status.code()));
  w.U32(static_cast<uint32_t>(message_bytes));
  w.Bytes(message, message_bytes);
  w.Finish();
}

void AppendInfoRequestFrame(uint64_t request_id, std::string* out) {
  FrameWriter(FrameType::kInfoRequest, kFlagFinal, request_id, 0, out)
      .Finish();
}

void AppendInfoResponseFrame(uint64_t request_id, const ServerInfo& info,
                             std::string* out) {
  FrameWriter w(FrameType::kInfoResponse, kFlagFinal, request_id, 39, out);
  w.U64(info.generation);
  w.U64(info.object_count);
  w.I32(info.num_covers);
  w.I32(info.cover_resolution);
  w.I32(info.histogram_cells);
  w.I32(info.histogram_resolution);
  w.U8(info.extract_histograms ? 1 : 0);
  w.U8(info.anisotropic_fit ? 1 : 0);
  w.U8(static_cast<uint8_t>(info.cover_search));
  // Trailing optional field (kFeatureStats et al.): decoders that
  // predate it stop at the byte above and read flags = 0.
  w.U32(info.feature_flags);
  w.Finish();
}

void AppendStatsRequestFrame(uint64_t request_id, const StatsRequest& request,
                             std::string* out) {
  FrameWriter w(FrameType::kStatsRequest, kFlagFinal, request_id, 11, out);
  w.U32(request.max_traces);
  w.U8(request.slow_only ? 1 : 0);
  // Trailing span/profiler fields (docs/PROTOCOL.md §12): servers that
  // predate them stop above (no spans, no profiler action).
  w.U8(request.include_spans ? 1 : 0);
  w.U8(request.profile_op);
  w.U32(request.profile_hz);
  w.Finish();
}

void AppendStatsResponseFrame(uint64_t request_id,
                              const StatsResponse& response,
                              std::string* out) {
  const size_t text_bytes = std::min<size_t>(response.metrics_text.size(),
                                             kMaxWireStatsTextBytes);
  const size_t traces =
      std::min<size_t>(response.traces.size(), kMaxWireTraces);
  const size_t trees =
      std::min<size_t>(response.span_trees.size(), kMaxWireSpanTrees);
  const size_t profile_bytes = std::min<size_t>(
      response.profile_text.size(), kMaxWireProfileBytes);
  size_t tree_bytes = 0;
  for (size_t i = 0; i < trees; ++i) {
    tree_bytes += 32 + 41 * std::min<size_t>(response.span_trees[i].span_count,
                                             obs::kSpanArenaCapacity);
  }
  FrameWriter w(FrameType::kStatsResponse, kFlagFinal, request_id,
                16 + text_bytes + traces * (112 + kReservedTraceBytes + 16) +
                    tree_bytes + profile_bytes,
                out);
  w.U32(static_cast<uint32_t>(text_bytes));
  w.Bytes(response.metrics_text, text_bytes);
  w.U32(static_cast<uint32_t>(traces));
  for (size_t i = 0; i < traces; ++i) {
    const obs::QueryTrace& t = response.traces[i];
    w.U64(t.trace_id);
    w.U64(t.generation);
    w.U8(t.kind);
    w.U8(t.strategy);
    w.U8(t.cache_hit);
    w.U8(t.status_code);
    w.I32(t.k);
    w.F64(t.eps);
    w.F64(t.queue_seconds);
    w.F64(t.total_seconds);
    w.F64(t.cpu_seconds);
    w.F64(t.filter_seconds);
    w.F64(t.refine_seconds);
    w.U64(t.filter_hits);
    w.U64(t.candidates_refined);
    w.U64(t.hungarian_invocations);
    w.U64(t.page_accesses);
    w.U64(t.bytes_read);
  }
  // Reserved block (docs/PROTOCOL.md §7): 12 zero bytes per trace,
  // after all the fixed 112-byte records, kept so the tracing blocks
  // below stay at their offsets for every peer.
  w.Zeros(traces * kReservedTraceBytes);
  // Trailing tracing blocks (docs/PROTOCOL.md §12), emitted in a fixed
  // order so truncation at any block boundary decodes as "absent":
  // (a) per-trace 16-byte trace ids, (b) span trees, (c) profiler text.
  for (size_t i = 0; i < traces; ++i) {
    w.U64(response.traces[i].trace_hi);
    w.U64(response.traces[i].trace_lo);
  }
  w.U32(static_cast<uint32_t>(trees));
  for (size_t i = 0; i < trees; ++i) {
    const obs::SpanTreeRecord& tree = response.span_trees[i];
    const uint32_t count =
        std::min<uint32_t>(tree.span_count,
                           static_cast<uint32_t>(obs::kSpanArenaCapacity));
    w.U64(tree.summary.trace_hi);
    w.U64(tree.summary.trace_lo);
    w.U64(tree.summary.trace_id);
    w.U32(count);
    w.U32(tree.spans_dropped);
    for (uint32_t s = 0; s < count; ++s) {
      const obs::SpanRecord& span = tree.spans[s];
      w.U64(span.span_id);
      w.U64(span.parent_span_id);
      w.U64(span.start_ns);
      w.U64(span.end_ns);
      w.U64(span.counter);
      w.U8(span.name);
    }
  }
  w.U32(static_cast<uint32_t>(profile_bytes));
  w.Bytes(response.profile_text, profile_bytes);
  w.Finish();
}

void AppendResponseFrames(uint64_t request_id,
                          const ServiceResponse& response, std::string* out,
                          uint32_t results_per_frame) {
  if (results_per_frame == 0) results_per_frame = 1;
  const size_t total_neighbors = response.neighbors.size();
  const size_t total_ids = response.ids.size();
  const size_t longest = std::max(total_neighbors, total_ids);
  const size_t chunks =
      std::max<size_t>(1, (longest + results_per_frame - 1) / results_per_frame);
  // Response header (57), per-chunk counts (8), trace echo (16).
  out->reserve(out->size() + chunks * (kFrameHeaderBytes + 8) + 57 + 16 +
               total_neighbors * 12 + total_ids * 4);
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    const bool final_chunk = chunk + 1 == chunks;
    FrameWriter w(FrameType::kResponse, final_chunk ? kFlagFinal : 0,
                  request_id, 0, out);
    if (chunk == 0) {
      w.U8(response.cache_hit ? 1 : 0);
      w.U64(response.generation);
      w.F64(response.latency_seconds);
      w.F64(response.cost.cpu_seconds);
      w.U64(response.cost.io.page_accesses());
      w.U64(response.cost.io.bytes_read());
      w.U64(response.cost.candidates_refined);
      w.U32(static_cast<uint32_t>(total_neighbors));
      w.U32(static_cast<uint32_t>(total_ids));
    }
    const size_t nb = std::min(total_neighbors, chunk * results_per_frame);
    const size_t ne =
        std::min(total_neighbors, (chunk + 1) * results_per_frame);
    const size_t ib = std::min(total_ids, chunk * results_per_frame);
    const size_t ie = std::min(total_ids, (chunk + 1) * results_per_frame);
    AppendChunkBody(&w, response, nb, ne, ib, ie);
    if (final_chunk) {
      // Trailing trace-id echo (docs/PROTOCOL.md §12) on the final
      // chunk only: clients that predate it stop at the chunk body.
      w.U64(response.trace_hi);
      w.U64(response.trace_lo);
    }
    w.Finish();
  }
}

// --- decoding --------------------------------------------------------

Status DecodeFrameHeader(const uint8_t* data, size_t size,
                         FrameHeader* header) {
  if (size < kFrameHeaderBytes) {
    return Status::InvalidArgument("short frame header");
  }
  WireCursor c(data, kFrameHeaderBytes);
  uint32_t magic;
  uint8_t type;
  c.U32(&magic);
  c.U16(&header->version);
  c.U8(&type);
  c.U8(&header->flags);
  c.U64(&header->request_id);
  c.U32(&header->payload_bytes);
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic (not a vsim peer)");
  }
  if (header->version != kWireVersion) {
    return Status::Unimplemented(
        "wire protocol version " + std::to_string(header->version) +
        " not supported (this build speaks version " +
        std::to_string(kWireVersion) + ")");
  }
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kStatsResponse)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  header->type = static_cast<FrameType>(type);
  if ((header->flags & ~kFlagFinal) != 0) {
    return Status::InvalidArgument("unknown frame flags");
  }
  if (header->payload_bytes > kMaxFramePayloadBytes) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(header->payload_bytes) +
        " bytes exceeds cap " + std::to_string(kMaxFramePayloadBytes));
  }
  return Status::OK();
}

Status DecodeRequestPayload(const uint8_t* data, size_t size,
                            ServiceRequest* request) {
  WireCursor c(data, size);
  uint8_t kind, strategy, with_reflections, has_query;
  if (!c.U8(&kind) || !c.U8(&strategy) || !c.U8(&with_reflections) ||
      !c.U8(&has_query)) {
    return Truncated("request");
  }
  if (kind >= kNumQueryKinds) {
    return Status::InvalidArgument("unknown query kind " +
                                   std::to_string(kind));
  }
  if (strategy >= kNumQueryStrategies) {
    return Status::InvalidArgument("unknown query strategy " +
                                   std::to_string(strategy));
  }
  if (with_reflections > 1 || has_query > 1) {
    return Status::InvalidArgument("request flag bytes must be 0 or 1");
  }
  request->kind = static_cast<QueryKind>(kind);
  request->strategy = static_cast<QueryStrategy>(strategy);
  request->with_reflections = with_reflections == 1;
  if (!c.I32(&request->object_id) || !c.I32(&request->options.k) ||
      !c.F64(&request->options.eps) ||
      !c.F64(&request->options.timeout_seconds)) {
    return Truncated("request");
  }
  request->query = ObjectRepr{};
  if (has_query == 1) {
    if (request->object_id >= 0) {
      return Status::InvalidArgument(
          "request carries both a stored object id and an external query");
    }
    VSIM_RETURN_NOT_OK(DecodeObjectRepr(&c, &request->query));
  }
  // Optional reserved u32 (docs/PROTOCOL.md §3): absent from the
  // oldest peers; when present it must be whole, and its value is
  // ignored. Range validation happens in QueryService::Validate, not
  // here.
  if (!c.Done() && !c.Skip(sizeof(uint32_t))) return Truncated("request");
  // Optional trailing trace context (docs/PROTOCOL.md §12): absent from
  // peers that predate it (the server mints an id of its own). The
  // three words travel together; a partial block is a truncation.
  request->trace = obs::TraceContext{};
  if (!c.Done()) {
    if (!c.U64(&request->trace.trace_hi) ||
        !c.U64(&request->trace.trace_lo) ||
        !c.U64(&request->trace.parent_span_id)) {
      return Truncated("request");
    }
  }
  if (!c.Done()) {
    return Status::InvalidArgument("trailing bytes after request payload");
  }
  return Status::OK();
}

Status DecodeStatusPayload(const uint8_t* data, size_t size, Status* status) {
  WireCursor c(data, size);
  uint8_t code_byte;
  uint32_t message_len;
  if (!c.U8(&code_byte) || !c.U32(&message_len)) return Truncated("status");
  StatusCode code;
  if (!StatusCodeFromInt(code_byte, &code)) {
    return Status::InvalidArgument("unknown status code " +
                                   std::to_string(code_byte));
  }
  if (code == StatusCode::kOk) {
    return Status::InvalidArgument(
        "status frame carries OK (successful completions are response "
        "frames)");
  }
  if (message_len > kMaxWireMessageBytes) {
    return Oversized("status message", message_len, kMaxWireMessageBytes);
  }
  std::string message(message_len, '\0');
  if (!c.Bytes(message.data(), message_len)) return Truncated("status");
  if (!c.Done()) {
    return Status::InvalidArgument("trailing bytes after status payload");
  }
  *status = Status(code, std::move(message));
  return Status::OK();
}

Status DecodeInfoResponsePayload(const uint8_t* data, size_t size,
                                 ServerInfo* info) {
  WireCursor c(data, size);
  uint8_t extract_histograms, anisotropic_fit, cover_search;
  if (!c.U64(&info->generation) || !c.U64(&info->object_count) ||
      !c.I32(&info->num_covers) || !c.I32(&info->cover_resolution) ||
      !c.I32(&info->histogram_cells) || !c.I32(&info->histogram_resolution) ||
      !c.U8(&extract_histograms) || !c.U8(&anisotropic_fit) ||
      !c.U8(&cover_search)) {
    return Truncated("info");
  }
  if (extract_histograms > 1 || anisotropic_fit > 1) {
    return Status::InvalidArgument("info flag bytes must be 0 or 1");
  }
  if (cover_search >
      static_cast<uint8_t>(CoverSequenceOptions::Search::kBeam)) {
    return Status::InvalidArgument("unknown cover-search mode " +
                                   std::to_string(cover_search));
  }
  info->extract_histograms = extract_histograms == 1;
  info->anisotropic_fit = anisotropic_fit == 1;
  info->cover_search =
      static_cast<CoverSequenceOptions::Search>(cover_search);
  // Optional trailing feature flags: absent from peers that predate
  // the field (they report no optional features). Unknown bits are
  // deliberately NOT rejected -- that is what makes the field a
  // version-break-free extension point.
  info->feature_flags = 0;
  if (!c.Done() && !c.U32(&info->feature_flags)) {
    return Truncated("info");
  }
  if (!c.Done()) {
    return Status::InvalidArgument("trailing bytes after info payload");
  }
  return Status::OK();
}

Status DecodeStatsRequestPayload(const uint8_t* data, size_t size,
                                 StatsRequest* request) {
  WireCursor c(data, size);
  uint8_t slow_only;
  if (!c.U32(&request->max_traces) || !c.U8(&slow_only)) {
    return Truncated("stats request");
  }
  if (slow_only > 1) {
    return Status::InvalidArgument("stats request flag byte must be 0 or 1");
  }
  request->slow_only = slow_only == 1;
  if (request->max_traces > kMaxWireTraces) {
    return Oversized("stats trace", request->max_traces, kMaxWireTraces);
  }
  // Optional trailing span/profiler fields (docs/PROTOCOL.md §12):
  // absent from peers that predate them. The block travels whole.
  request->include_spans = false;
  request->profile_op = kProfileNone;
  request->profile_hz = 0;
  if (!c.Done()) {
    uint8_t include_spans;
    if (!c.U8(&include_spans) || !c.U8(&request->profile_op) ||
        !c.U32(&request->profile_hz)) {
      return Truncated("stats request");
    }
    if (include_spans > 1) {
      return Status::InvalidArgument("stats request flag byte must be 0 or 1");
    }
    if (request->profile_op > kProfileCollect) {
      return Status::InvalidArgument(
          "unknown profile op " + std::to_string(request->profile_op));
    }
    request->include_spans = include_spans == 1;
  }
  if (!c.Done()) {
    return Status::InvalidArgument("trailing bytes after stats request");
  }
  return Status::OK();
}

Status DecodeStatsResponsePayload(const uint8_t* data, size_t size,
                                  StatsResponse* response) {
  WireCursor c(data, size);
  uint32_t text_len;
  if (!c.U32(&text_len)) return Truncated("stats response");
  if (text_len > kMaxWireStatsTextBytes) {
    return Oversized("stats text", text_len, kMaxWireStatsTextBytes);
  }
  if (c.remaining() < text_len) return Truncated("stats response");
  response->metrics_text.assign(text_len, '\0');
  if (!c.Bytes(response->metrics_text.data(), text_len)) {
    return Truncated("stats response");
  }
  uint32_t n_traces;
  if (!c.U32(&n_traces)) return Truncated("stats response");
  if (n_traces > kMaxWireTraces) {
    return Oversized("stats trace", n_traces, kMaxWireTraces);
  }
  // Fixed 112-byte trace records; the full count must be present
  // before any allocation.
  constexpr size_t kTraceRecordBytes = 112;
  if (c.remaining() < static_cast<size_t>(n_traces) * kTraceRecordBytes) {
    return Truncated("stats response");
  }
  response->traces.clear();
  response->traces.reserve(n_traces);
  for (uint32_t i = 0; i < n_traces; ++i) {
    obs::QueryTrace t;
    if (!c.U64(&t.trace_id) || !c.U64(&t.generation) || !c.U8(&t.kind) ||
        !c.U8(&t.strategy) || !c.U8(&t.cache_hit) || !c.U8(&t.status_code) ||
        !c.I32(&t.k) || !c.F64(&t.eps) || !c.F64(&t.queue_seconds) ||
        !c.F64(&t.total_seconds) || !c.F64(&t.cpu_seconds) ||
        !c.F64(&t.filter_seconds) || !c.F64(&t.refine_seconds) ||
        !c.U64(&t.filter_hits) || !c.U64(&t.candidates_refined) ||
        !c.U64(&t.hungarian_invocations) || !c.U64(&t.page_accesses) ||
        !c.U64(&t.bytes_read)) {
      return Truncated("stats trace");
    }
    if (t.kind >= kNumQueryKinds) {
      return Status::InvalidArgument("unknown trace query kind " +
                                     std::to_string(t.kind));
    }
    if (t.strategy >= kNumQueryStrategies) {
      return Status::InvalidArgument("unknown trace query strategy " +
                                     std::to_string(t.strategy));
    }
    if (t.cache_hit > 1) {
      return Status::InvalidArgument("trace cache_hit byte must be 0 or 1");
    }
    StatusCode code;
    if (!StatusCodeFromInt(t.status_code, &code)) {
      return Status::InvalidArgument("unknown trace status code " +
                                     std::to_string(t.status_code));
    }
    response->traces.push_back(t);
  }
  // Optional reserved block (docs/PROTOCOL.md §7, 12 bytes per trace):
  // absent from the oldest peers; when present it must be whole, and
  // its contents are ignored.
  if (!c.Done() &&
      !c.Skip(static_cast<size_t>(n_traces) * kReservedTraceBytes)) {
    return Truncated("stats response");
  }
  // Optional trailing tracing blocks (docs/PROTOCOL.md §12), each
  // absent from peers that predate it: (a) per-trace 16-byte trace
  // ids, (b) span trees, (c) profiler text. Each block must be whole.
  response->span_trees.clear();
  response->profile_text.clear();
  if (!c.Done()) {
    if (c.remaining() < static_cast<size_t>(n_traces) * 16) {
      return Truncated("stats response");
    }
    for (uint32_t i = 0; i < n_traces; ++i) {
      obs::QueryTrace& t = response->traces[i];
      if (!c.U64(&t.trace_hi) || !c.U64(&t.trace_lo)) {
        return Truncated("stats trace");
      }
    }
  }
  if (!c.Done()) {
    uint32_t n_trees;
    if (!c.U32(&n_trees)) return Truncated("stats response");
    if (n_trees > kMaxWireSpanTrees) {
      return Oversized("span tree", n_trees, kMaxWireSpanTrees);
    }
    response->span_trees.reserve(n_trees);
    for (uint32_t i = 0; i < n_trees; ++i) {
      obs::SpanTreeRecord tree{};
      if (!c.U64(&tree.summary.trace_hi) || !c.U64(&tree.summary.trace_lo) ||
          !c.U64(&tree.summary.trace_id) || !c.U32(&tree.span_count) ||
          !c.U32(&tree.spans_dropped)) {
        return Truncated("span tree");
      }
      if (tree.span_count > obs::kSpanArenaCapacity) {
        return Oversized("span", tree.span_count, obs::kSpanArenaCapacity);
      }
      // 41 bytes per span record; the full count must be present.
      if (c.remaining() < static_cast<size_t>(tree.span_count) * 41) {
        return Truncated("span tree");
      }
      for (uint32_t s = 0; s < tree.span_count; ++s) {
        obs::SpanRecord& span = tree.spans[s];
        if (!c.U64(&span.span_id) || !c.U64(&span.parent_span_id) ||
            !c.U64(&span.start_ns) || !c.U64(&span.end_ns) ||
            !c.U64(&span.counter) || !c.U8(&span.name)) {
          return Truncated("span record");
        }
        if (span.name >= kNumSpanNames) {
          return Status::InvalidArgument("unknown span name " +
                                         std::to_string(span.name));
        }
      }
      response->span_trees.push_back(tree);
    }
  }
  if (!c.Done()) {
    uint32_t profile_len;
    if (!c.U32(&profile_len)) return Truncated("stats response");
    if (profile_len > kMaxWireProfileBytes) {
      return Oversized("profile text", profile_len, kMaxWireProfileBytes);
    }
    if (c.remaining() < profile_len) return Truncated("stats response");
    response->profile_text.assign(profile_len, '\0');
    if (!c.Bytes(response->profile_text.data(), profile_len)) {
      return Truncated("stats response");
    }
  }
  if (!c.Done()) {
    return Status::InvalidArgument("trailing bytes after stats response");
  }
  return Status::OK();
}

Status ResponseAssembler::Add(const uint8_t* data, size_t size,
                              bool final_chunk) {
  if (complete_) {
    return Status::InvalidArgument("response chunk after the final chunk");
  }
  WireCursor c(data, size);
  if (!started_) {
    started_ = true;
    uint8_t cache_hit;
    double cpu_seconds;
    uint64_t pages, bytes, refined;
    uint32_t total_neighbors, total_ids;
    if (!c.U8(&cache_hit) || !c.U64(&response_.generation) ||
        !c.F64(&response_.latency_seconds) || !c.F64(&cpu_seconds) ||
        !c.U64(&pages) || !c.U64(&bytes) || !c.U64(&refined) ||
        !c.U32(&total_neighbors) || !c.U32(&total_ids)) {
      return Truncated("response header");
    }
    if (cache_hit > 1) {
      return Status::InvalidArgument("cache_hit byte must be 0 or 1");
    }
    if (total_neighbors > kMaxWireResults || total_ids > kMaxWireResults) {
      return Oversized("response result",
                       std::max<uint64_t>(total_neighbors, total_ids),
                       kMaxWireResults);
    }
    response_.cache_hit = cache_hit == 1;
    response_.cost.cpu_seconds = cpu_seconds;
    response_.cost.io.AddPageAccesses(pages);
    response_.cost.io.AddBytesRead(bytes);
    response_.cost.candidates_refined = refined;
    expected_neighbors_ = total_neighbors;
    expected_ids_ = total_ids;
    response_.neighbors.reserve(total_neighbors);
    response_.ids.reserve(total_ids);
  }
  uint32_t n_neighbors;
  if (!c.U32(&n_neighbors)) return Truncated("response chunk");
  if (n_neighbors > expected_neighbors_ - response_.neighbors.size()) {
    return Status::InvalidArgument(
        "response chunk exceeds the announced neighbor total");
  }
  if (c.remaining() < static_cast<size_t>(n_neighbors) * 12) {
    return Truncated("response chunk");
  }
  for (uint32_t i = 0; i < n_neighbors; ++i) {
    Neighbor n;
    if (!c.I32(&n.id) || !c.F64(&n.distance)) {
      return Truncated("response chunk");
    }
    response_.neighbors.push_back(n);
  }
  uint32_t n_ids;
  if (!c.U32(&n_ids)) return Truncated("response chunk");
  if (n_ids > expected_ids_ - response_.ids.size()) {
    return Status::InvalidArgument(
        "response chunk exceeds the announced id total");
  }
  if (c.remaining() < static_cast<size_t>(n_ids) * 4) {
    return Truncated("response chunk");
  }
  for (uint32_t i = 0; i < n_ids; ++i) {
    int32_t id;
    if (!c.I32(&id)) return Truncated("response chunk");
    response_.ids.push_back(id);
  }
  // Optional trailing trace-id echo on the final chunk only
  // (docs/PROTOCOL.md §12): absent from servers that predate it.
  if (final_chunk && !c.Done()) {
    if (!c.U64(&response_.trace_hi) || !c.U64(&response_.trace_lo)) {
      return Truncated("response chunk");
    }
  }
  if (!c.Done()) {
    return Status::InvalidArgument("trailing bytes after response chunk");
  }
  if (final_chunk) {
    if (response_.neighbors.size() != expected_neighbors_ ||
        response_.ids.size() != expected_ids_) {
      return Status::InvalidArgument(
          "final response chunk leaves the announced totals unmet");
    }
    complete_ = true;
  }
  return Status::OK();
}

ServiceResponse ResponseAssembler::Take() {
  ServiceResponse out = std::move(response_);
  started_ = false;
  complete_ = false;
  expected_neighbors_ = 0;
  expected_ids_ = 0;
  response_ = ServiceResponse{};
  return out;
}

}  // namespace vsim::net

#include "vsim/net/protocol.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace vsim::net {

namespace {

// Enumerator counts of the wire-visible enums. The wire encodes the
// underlying values, so these move in lockstep with the enum
// definitions (a new enumerator extends the valid range; reordering
// would be a protocol break, as documented at each enum). Strategy
// value 4 is retired (docs/PROTOCOL.md §3): it is never reused, so a
// payload naming it fails like any unknown value.
constexpr uint8_t kNumQueryKinds = 4;
constexpr uint8_t kNumQueryStrategies = 4;
constexpr uint8_t kNumSpanNames =
    static_cast<uint8_t>(vsim::obs::kNumSpanNames);

// Bytes per trace of the stats response's reserved block
// (docs/PROTOCOL.md §7).
constexpr size_t kReservedTraceBytes = 12;

// --- little-endian append helpers ------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  // vsim-lint: allow(wire-memcpy) bit-cast of a local double, no wire buffer
  std::memcpy(&bits, &v, 8);
  PutU64(out, bits);
}

void PutDoubles(std::string* out, const std::vector<double>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (double d : v) PutF64(out, d);
}

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

void AppendObjectRepr(std::string* out, const ObjectRepr& query) {
  PutU32(out, static_cast<uint32_t>(query.vector_set.size()));
  for (const FeatureVector& v : query.vector_set.vectors) {
    PutDoubles(out, v);
  }
  PutDoubles(out, query.centroid);
  PutDoubles(out, query.cover_vector);
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
void AppendChunkBody(std::string* out, const ServiceResponse& response,
                     size_t neighbor_begin, size_t neighbor_end,
                     size_t id_begin, size_t id_end) {
  PutU32(out, static_cast<uint32_t>(neighbor_end - neighbor_begin));
  for (size_t i = neighbor_begin; i < neighbor_end; ++i) {
    PutI32(out, response.neighbors[i].id);
    PutF64(out, response.neighbors[i].distance);
  }
  PutU32(out, static_cast<uint32_t>(id_end - id_begin));
  for (size_t i = id_begin; i < id_end; ++i) {
    PutI32(out, response.ids[i]);
  }
}

}  // namespace

// --- encoding --------------------------------------------------------

void AppendFrame(FrameType type, uint8_t flags, uint64_t request_id,
                 const std::string& payload, std::string* out) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  PutU32(out, kWireMagic);
  PutU16(out, kWireVersion);
  PutU8(out, static_cast<uint8_t>(type));
  PutU8(out, flags);
  PutU64(out, request_id);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

void AppendRequestFrame(uint64_t request_id, const ServiceRequest& request,
                        std::string* out) {
  std::string payload;
  const bool has_query = request.object_id < 0;
  PutU8(&payload, static_cast<uint8_t>(request.kind));
  PutU8(&payload, static_cast<uint8_t>(request.strategy));
  PutU8(&payload, request.with_reflections ? 1 : 0);
  PutU8(&payload, has_query ? 1 : 0);
  PutI32(&payload, request.object_id);
  PutI32(&payload, request.options.k);
  PutF64(&payload, request.options.eps);
  PutF64(&payload, request.options.timeout_seconds);
  if (has_query) AppendObjectRepr(&payload, request.query);
  // Reserved u32 (docs/PROTOCOL.md §3): written as zero, kept so the
  // trace block below stays at its offset for every peer. The
  // ObjectRepr block is self-terminating, so the trailing position is
  // unambiguous.
  PutU32(&payload, 0);
  // Trailing trace context (docs/PROTOCOL.md §12): the distributed
  // trace identity this request belongs to, zero when untraced.
  // Decoders that predate the block stop above and mint server-side.
  PutU64(&payload, request.trace.trace_hi);
  PutU64(&payload, request.trace.trace_lo);
  PutU64(&payload, request.trace.parent_span_id);
  AppendFrame(FrameType::kRequest, kFlagFinal, request_id, payload, out);
}

void AppendStatusFrame(uint64_t request_id, const Status& status,
                       std::string* out) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(status.code()));
  std::string message = status.message();
  if (message.size() > kMaxWireMessageBytes) {
    message.resize(kMaxWireMessageBytes);
  }
  PutU32(&payload, static_cast<uint32_t>(message.size()));
  payload.append(message);
  AppendFrame(FrameType::kStatus, kFlagFinal, request_id, payload, out);
}

void AppendInfoRequestFrame(uint64_t request_id, std::string* out) {
  AppendFrame(FrameType::kInfoRequest, kFlagFinal, request_id, {}, out);
}

void AppendInfoResponseFrame(uint64_t request_id, const ServerInfo& info,
                             std::string* out) {
  std::string payload;
  PutU64(&payload, info.generation);
  PutU64(&payload, info.object_count);
  PutI32(&payload, info.num_covers);
  PutI32(&payload, info.cover_resolution);
  PutI32(&payload, info.histogram_cells);
  PutI32(&payload, info.histogram_resolution);
  PutU8(&payload, info.extract_histograms ? 1 : 0);
  PutU8(&payload, info.anisotropic_fit ? 1 : 0);
  PutU8(&payload, static_cast<uint8_t>(info.cover_search));
  // Trailing optional field (kFeatureStats et al.): decoders that
  // predate it stop at the byte above and read flags = 0.
  PutU32(&payload, info.feature_flags);
  AppendFrame(FrameType::kInfoResponse, kFlagFinal, request_id, payload, out);
}

void AppendStatsRequestFrame(uint64_t request_id, const StatsRequest& request,
                             std::string* out) {
  std::string payload;
  PutU32(&payload, request.max_traces);
  PutU8(&payload, request.slow_only ? 1 : 0);
  // Trailing span/profiler fields (docs/PROTOCOL.md §12): servers that
  // predate them stop above (no spans, no profiler action).
  PutU8(&payload, request.include_spans ? 1 : 0);
  PutU8(&payload, request.profile_op);
  PutU32(&payload, request.profile_hz);
  AppendFrame(FrameType::kStatsRequest, kFlagFinal, request_id, payload, out);
}

void AppendStatsResponseFrame(uint64_t request_id,
                              const StatsResponse& response,
                              std::string* out) {
  std::string payload;
  std::string text = response.metrics_text;
  if (text.size() > kMaxWireStatsTextBytes) {
    text.resize(kMaxWireStatsTextBytes);
  }
  PutU32(&payload, static_cast<uint32_t>(text.size()));
  payload.append(text);
  const size_t traces =
      std::min<size_t>(response.traces.size(), kMaxWireTraces);
  PutU32(&payload, static_cast<uint32_t>(traces));
  for (size_t i = 0; i < traces; ++i) {
    const obs::QueryTrace& t = response.traces[i];
    PutU64(&payload, t.trace_id);
    PutU64(&payload, t.generation);
    PutU8(&payload, t.kind);
    PutU8(&payload, t.strategy);
    PutU8(&payload, t.cache_hit);
    PutU8(&payload, t.status_code);
    PutI32(&payload, t.k);
    PutF64(&payload, t.eps);
    PutF64(&payload, t.queue_seconds);
    PutF64(&payload, t.total_seconds);
    PutF64(&payload, t.cpu_seconds);
    PutF64(&payload, t.filter_seconds);
    PutF64(&payload, t.refine_seconds);
    PutU64(&payload, t.filter_hits);
    PutU64(&payload, t.candidates_refined);
    PutU64(&payload, t.hungarian_invocations);
    PutU64(&payload, t.page_accesses);
    PutU64(&payload, t.bytes_read);
  }
  // Reserved block (docs/PROTOCOL.md §7): 12 zero bytes per trace,
  // after all the fixed 112-byte records, kept so the tracing blocks
  // below stay at their offsets for every peer.
  payload.append(traces * kReservedTraceBytes, '\0');
  // Trailing tracing blocks (docs/PROTOCOL.md §12), emitted in a fixed
  // order so truncation at any block boundary decodes as "absent":
  // (a) per-trace 16-byte trace ids, (b) span trees, (c) profiler text.
  for (size_t i = 0; i < traces; ++i) {
    PutU64(&payload, response.traces[i].trace_hi);
    PutU64(&payload, response.traces[i].trace_lo);
  }
  const size_t trees =
      std::min<size_t>(response.span_trees.size(), kMaxWireSpanTrees);
  PutU32(&payload, static_cast<uint32_t>(trees));
  for (size_t i = 0; i < trees; ++i) {
    const obs::SpanTreeRecord& tree = response.span_trees[i];
    const uint32_t count =
        std::min<uint32_t>(tree.span_count,
                           static_cast<uint32_t>(obs::kSpanArenaCapacity));
    PutU64(&payload, tree.trace_hi);
    PutU64(&payload, tree.trace_lo);
    PutU64(&payload, tree.query_trace_id);
    PutU32(&payload, count);
    PutU32(&payload, tree.spans_dropped);
    for (uint32_t s = 0; s < count; ++s) {
      const obs::SpanRecord& span = tree.spans[s];
      PutU64(&payload, span.span_id);
      PutU64(&payload, span.parent_span_id);
      PutU64(&payload, span.start_ns);
      PutU64(&payload, span.end_ns);
      PutU64(&payload, span.counter);
      PutU8(&payload, span.name);
    }
  }
  std::string profile = response.profile_text;
  if (profile.size() > kMaxWireProfileBytes) {
    profile.resize(kMaxWireProfileBytes);
  }
  PutU32(&payload, static_cast<uint32_t>(profile.size()));
  payload.append(profile);
  AppendFrame(FrameType::kStatsResponse, kFlagFinal, request_id, payload,
              out);
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
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    std::string payload;
    if (chunk == 0) {
      PutU8(&payload, response.cache_hit ? 1 : 0);
      PutU64(&payload, response.generation);
      PutF64(&payload, response.latency_seconds);
      PutF64(&payload, response.cost.cpu_seconds);
      PutU64(&payload, response.cost.io.page_accesses());
      PutU64(&payload, response.cost.io.bytes_read());
      PutU64(&payload, response.cost.candidates_refined);
      PutU32(&payload, static_cast<uint32_t>(total_neighbors));
      PutU32(&payload, static_cast<uint32_t>(total_ids));
    }
    const size_t nb = std::min(total_neighbors, chunk * results_per_frame);
    const size_t ne =
        std::min(total_neighbors, (chunk + 1) * results_per_frame);
    const size_t ib = std::min(total_ids, chunk * results_per_frame);
    const size_t ie = std::min(total_ids, (chunk + 1) * results_per_frame);
    AppendChunkBody(&payload, response, nb, ne, ib, ie);
    const bool final_chunk = chunk + 1 == chunks;
    if (final_chunk) {
      // Trailing trace-id echo (docs/PROTOCOL.md §12) on the final
      // chunk only: clients that predate it stop at the chunk body.
      PutU64(&payload, response.trace_hi);
      PutU64(&payload, response.trace_lo);
    }
    AppendFrame(FrameType::kResponse, final_chunk ? kFlagFinal : 0,
                request_id, payload, out);
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
      obs::SpanTreeRecord tree;
      if (!c.U64(&tree.trace_hi) || !c.U64(&tree.trace_lo) ||
          !c.U64(&tree.query_trace_id) || !c.U32(&tree.span_count) ||
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

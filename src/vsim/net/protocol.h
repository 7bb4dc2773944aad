// Versioned binary wire protocol for the remote serving front-end
// (`vsim serve` / net::Server / net::Client): length-prefixed frames
// that carry the service layer's canonical request/response types --
// ServiceRequest (including external ObjectRepr queries),
// ServiceResponse (k-NN results streamed across chunk frames) and
// Status -- across a TCP connection. docs/PROTOCOL.md is the on-wire
// spec; this header is its executable form.
//
// Framing. Every frame is a fixed 20-byte little-endian header followed
// by `payload_bytes` of payload:
//
//   offset  size  field
//        0     4  magic 0x504E5356 ("VSNP" on the wire)
//        4     2  protocol version (kWireVersion; exact match required)
//        6     1  frame type (FrameType)
//        7     1  flags (bit 0 = kFlagFinal: last chunk of a response)
//        8     8  request id (client-chosen; echoed on every completion)
//       16     4  payload length (<= kMaxFramePayloadBytes)
//
// Request ids make per-connection pipelining possible: a client may
// send any number of request frames without waiting, and matches each
// completion -- one or more kResponse frames, or a single kStatus frame
// -- back to its request by id. The server answers in request order
// (HTTP/1.1-style in-order pipelining), so ids double as a sequencing
// check.
//
// Streamed results. A ServiceResponse is sent as 1..N kResponse frames:
// the first carries the response header (generation, cost, totals), and
// every frame carries a chunk of the neighbor/id lists; the last sets
// kFlagFinal. ResponseAssembler reassembles and cross-checks the chunks
// against the announced totals.
//
// Decoding is strict in the spirit of the corrupt-file corpus
// (tests/corrupt_file_test.cc): every length field is bounds-checked
// before any allocation, enum values are range-validated, and a payload
// must be consumed exactly -- trailing bytes, truncation, or an
// oversized count all yield a clean Status error, never a crash, hang
// or runaway allocation (tests/protocol_test.cc sweeps truncations and
// bit flips over every frame kind).
//
// Thread-safety: all functions are pure (no shared state); encoded
// buffers and WireCursor instances are confined to their caller.
#ifndef VSIM_NET_PROTOCOL_H_
#define VSIM_NET_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "vsim/common/status.h"
#include "vsim/features/cover_sequence.h"
#include "vsim/obs/query_trace.h"
#include "vsim/obs/span.h"
#include "vsim/service/query_service.h"

namespace vsim::net {

inline constexpr uint32_t kWireMagic = 0x504E5356;  // "VSNP" little-endian
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;

// Hard caps enforced before any allocation on the decode path. A peer
// announcing a larger count is rejected with kInvalidArgument.
inline constexpr uint32_t kMaxFramePayloadBytes = 16u << 20;  // 16 MiB
inline constexpr uint32_t kMaxWireVectors = 4096;   // vectors per set
inline constexpr uint32_t kMaxWireDim = 4096;       // doubles per vector
inline constexpr uint32_t kMaxWireMessageBytes = 1u << 16;
inline constexpr uint32_t kMaxWireResults = 1u << 20;  // per response
inline constexpr uint32_t kMaxWireStatsTextBytes = 1u << 20;  // exposition
inline constexpr uint32_t kMaxWireTraces = 1024;  // trace-summary pull
inline constexpr uint32_t kMaxWireSpanTrees = 256;  // span-ring pull
inline constexpr uint32_t kMaxWireProfileBytes = 1u << 20;  // collapsed stacks

// Results per kResponse frame. Small responses (the common case) fit in
// one final frame; large range results stream across several.
inline constexpr uint32_t kDefaultResultsPerFrame = 4096;

enum class FrameType : uint8_t {
  kRequest = 1,        // client -> server: one ServiceRequest
  kResponse = 2,       // server -> client: response chunk(s)
  kStatus = 3,         // server -> client: error completion of a request
                       // (request id 0 = connection-level error)
  kInfoRequest = 4,    // client -> server: snapshot/extraction metadata
  kInfoResponse = 5,   // server -> client: ServerInfo
  kStatsRequest = 6,   // client -> server: metrics + trace pull
  kStatsResponse = 7,  // server -> client: StatsResponse
};

inline constexpr uint8_t kFlagFinal = 0x01;

struct FrameHeader {
  uint16_t version = kWireVersion;
  FrameType type = FrameType::kRequest;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;
};

// Snapshot + extraction metadata a remote client needs to issue
// compatible external ObjectRepr queries (vsim remote-query --mesh
// extracts with the server database's own options).
// Optional-capability bits carried in ServerInfo.feature_flags. Minor
// features extend the protocol without a version break: an older
// decoder that stops before the flags field simply reports 0 (no
// optional features), and unknown bits are ignored rather than
// rejected -- only a *structural* change to existing frames bumps
// kWireVersion.
inline constexpr uint32_t kFeatureStats = 1u << 0;  // stats frame pair

struct ServerInfo {
  uint64_t generation = 0;
  uint64_t object_count = 0;
  int32_t num_covers = 0;
  int32_t cover_resolution = 0;
  int32_t histogram_cells = 0;
  int32_t histogram_resolution = 0;
  bool extract_histograms = false;
  bool anisotropic_fit = false;
  CoverSequenceOptions::Search cover_search =
      CoverSequenceOptions::Search::kHillClimb;
  // Optional trailing field (see kFeatureStats above); decodes as 0
  // from a peer that predates it.
  uint32_t feature_flags = 0;
};

// Profiler sub-request operations carried in StatsRequest.profile_op
// (docs/PROTOCOL.md §12): arm/disarm the in-process sampling profiler
// or collect its collapsed-stack rendering. kProfileNone leaves the
// profiler alone (the common stats scrape).
inline constexpr uint8_t kProfileNone = 0;
inline constexpr uint8_t kProfileArm = 1;
inline constexpr uint8_t kProfileDisarm = 2;
inline constexpr uint8_t kProfileCollect = 3;

// kStatsRequest payload: how many request traces to pull alongside the
// metrics exposition. The trailing fields (include_spans
// onward) are tolerant extensions: old peers omit them and get the
// pre-span behavior.
struct StatsRequest {
  uint32_t max_traces = 64;  // capped server-side at kMaxWireTraces
  // Pull the span ring's slow sub-ring instead of its recent ring, for
  // the traces and the span trees alike.
  bool slow_only = false;
  // Pull the ring's span trees alongside the traces
  // (docs/PROTOCOL.md §12; capped at kMaxWireSpanTrees).
  bool include_spans = false;
  // Profiler control (kProfile* above). Arm uses profile_hz.
  uint8_t profile_op = kProfileNone;
  uint32_t profile_hz = 0;
};

// kStatsResponse payload: the full Prometheus text exposition plus the
// requested request traces (most recent first), span trees and
// profiler output when requested (empty otherwise; tolerant trailing
// blocks on the wire).
struct StatsResponse {
  std::string metrics_text;
  std::vector<obs::QueryTrace> traces;
  std::vector<obs::SpanTreeRecord> span_trees;
  std::string profile_text;  // collapsed stacks (flamegraph.pl input)
};

// --- Encoding (appends complete frames to *out) ----------------------
//
// Every encoder writes its frame straight into *out: one reserve, the
// header, the fields, and the payload length patched in at the end.

void AppendFrame(FrameType type, uint8_t flags, uint64_t request_id,
                 const std::string& payload, std::string* out);
// Frames `request` with `trace` as its trace context (request.trace is
// not read), so a caller that mints a context need not copy the request.
void AppendRequestFrame(uint64_t request_id, const ServiceRequest& request,
                        const obs::TraceContext& trace, std::string* out);
inline void AppendRequestFrame(uint64_t request_id,
                               const ServiceRequest& request,
                               std::string* out) {
  AppendRequestFrame(request_id, request, request.trace, out);
}
// `status` must be non-OK: a kStatus frame is an error completion (OK
// completions are kResponse frames).
void AppendStatusFrame(uint64_t request_id, const Status& status,
                       std::string* out);
void AppendInfoRequestFrame(uint64_t request_id, std::string* out);
void AppendInfoResponseFrame(uint64_t request_id, const ServerInfo& info,
                             std::string* out);
void AppendStatsRequestFrame(uint64_t request_id, const StatsRequest& request,
                             std::string* out);
// Truncates metrics_text to kMaxWireStatsTextBytes and the trace list
// to kMaxWireTraces before framing.
void AppendStatsResponseFrame(uint64_t request_id,
                              const StatsResponse& response,
                              std::string* out);
// Splits the response's neighbor/id lists into chunks of at most
// `results_per_frame` entries; the last frame carries kFlagFinal.
void AppendResponseFrames(uint64_t request_id,
                          const ServiceResponse& response, std::string* out,
                          uint32_t results_per_frame = kDefaultResultsPerFrame);

// --- Decoding (strict, bounds-checked) -------------------------------

// Parses and validates a frame header from exactly kFrameHeaderBytes.
// Magic or version mismatch, unknown type, unknown flag bits and
// oversized payload lengths are all kInvalidArgument (the distinguished
// message for a version mismatch names both versions so the server can
// surface it to the peer before closing).
Status DecodeFrameHeader(const uint8_t* data, size_t size,
                         FrameHeader* header);

// Each payload decoder consumes `size` bytes exactly.
Status DecodeRequestPayload(const uint8_t* data, size_t size,
                            ServiceRequest* request);
Status DecodeStatusPayload(const uint8_t* data, size_t size, Status* status);
Status DecodeInfoResponsePayload(const uint8_t* data, size_t size,
                                 ServerInfo* info);
Status DecodeStatsRequestPayload(const uint8_t* data, size_t size,
                                 StatsRequest* request);
Status DecodeStatsResponsePayload(const uint8_t* data, size_t size,
                                  StatsResponse* response);

// Reassembles a streamed response from kResponse payloads in arrival
// order. Add() returns an error on any structural violation (chunk
// counts exceeding the announced totals, a final chunk that leaves them
// incomplete, chunks after final). complete() flips when the final
// chunk arrived with totals exactly satisfied.
class ResponseAssembler {
 public:
  Status Add(const uint8_t* data, size_t size, bool final_chunk);
  bool complete() const { return complete_; }
  ServiceResponse Take();

 private:
  bool started_ = false;
  bool complete_ = false;
  uint32_t expected_neighbors_ = 0;
  uint32_t expected_ids_ = 0;
  ServiceResponse response_;
};

}  // namespace vsim::net

#endif  // VSIM_NET_PROTOCOL_H_

// Client side of the wire protocol: a blocking connection to a `vsim
// serve` endpoint that speaks protocol.h frames. Used by the `vsim
// remote-query` CLI, servebench and the loopback tests; the
// request/response types are the exact ServiceRequest /
// ServiceResponse the in-process QueryService API uses, so switching
// between local and remote execution is a transport change only.
//
// Pipelining: Send() enqueues a request without waiting and returns its
// request id; Receive() blocks for the *next* completion. The server
// answers in request order, so completions come back in Send() order --
// issue a window of Sends, then match Receives by the echoed id.
// Execute() is the one-shot convenience (Send + Receive).
//
// Wire errors vs service errors: a request that fails server-side
// (kUnavailable admission rejection, kDeadlineExceeded, validation)
// comes back as that same Status from Receive() -- the transport
// faithfully propagates the service's error contract. Transport-level
// failures (connection reset, malformed server bytes) surface as
// kIOError/kInvalidArgument and poison the connection (ok() turns
// false; reconnect to continue).
//
// Reads: one per-connection buffer serves Receive, Info and Stats. A
// recv takes whatever the socket holds -- usually a whole response, and
// for a pipelined window often several -- and frames are decoded in
// place from the buffer, so a response costs one recv and no payload
// copy. Each frame header is validated (DecodeFrameHeader, including
// the kMaxFramePayloadBytes cap) before the buffer grows to hold it.
//
// Thread-safety: a Client is confined to one thread. Concurrency comes
// from many clients (one per thread, as the bench does), not from
// sharing one.
#ifndef VSIM_NET_CLIENT_H_
#define VSIM_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/net/protocol.h"
#include "vsim/net/socket_util.h"
#include "vsim/service/query_service.h"

namespace vsim::net {

class Client {
 public:
  Client() = default;
  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  static StatusOr<Client> Connect(const std::string& host, int port);

  // Connected and no transport failure so far.
  bool ok() const { return fd_.valid() && !poisoned_; }

  // Pipelined submission: writes one request frame and returns without
  // waiting for the response. *request_id receives the id that the
  // matching completion will echo. A request without a trace context
  // gets one minted here (docs/PROTOCOL.md §12) -- the client is the
  // root of the distributed trace -- readable via last_trace() and
  // echoed back in the response (ServiceResponse::trace_hi/lo).
  Status Send(const ServiceRequest& request, uint64_t* request_id);

  // The trace context of the most recent Send (minted or caller-
  // provided). Zero until the first Send.
  const obs::TraceContext& last_trace() const { return last_trace_; }

  // Blocks for the next completion (in Send order). On success fills
  // *request_id (may be null) and returns the reassembled response; a
  // server-side error completion returns that Status with *request_id
  // still filled. A connection-level error frame (id 0, e.g. the
  // server's connection-limit rejection) is returned as its Status and
  // poisons the connection.
  StatusOr<ServiceResponse> Receive(uint64_t* request_id = nullptr);

  // Send + Receive. Requires no other requests outstanding.
  StatusOr<ServiceResponse> Execute(const ServiceRequest& request);

  // Fetches the server's snapshot + extraction metadata. Requires no
  // other requests outstanding (the info response is matched by order,
  // like every completion).
  StatusOr<ServerInfo> Info();

  // Pulls the server's metrics exposition and recent (or slow) request
  // traces (kStatsRequest/kStatsResponse; servers advertise support via
  // kFeatureStats in Info().feature_flags). Requires no other requests
  // outstanding.
  StatusOr<StatsResponse> Stats(uint32_t max_traces = 64,
                                bool slow_only = false);

  // Full-control stats pull (docs/PROTOCOL.md §12): span-tree snapshot
  // (`include_spans`) and the profiler sub-request (`profile_op` /
  // `profile_hz`) ride the same frame. Requires no other requests
  // outstanding.
  StatusOr<StatsResponse> Stats(const StatsRequest& request);

  void Close() { fd_.Reset(); }

 private:
  // Writes the frames in out_ and clears it; a failed write poisons.
  Status Flush();
  // Receives until `bytes` unread bytes are buffered. EOF with nothing
  // unread sets *clean_eof (when given) and returns OK; any other EOF is
  // kIOError.
  Status Fill(size_t bytes, bool* clean_eof);
  // Reads the next frame through in_: *payload points into in_ and
  // stays valid until the next read. Clean EOF at a frame boundary sets
  // *clean_eof and returns OK; EOF inside a frame is kIOError. Does not
  // poison: the callers do, on any error.
  Status NextFrame(FrameHeader* header, const uint8_t** payload,
                   bool* clean_eof);
  // Reads one frame that must answer the info or stats request `id`
  // with frame type `expected`; a status frame is returned as its
  // Status. Poisons the connection on any failure.
  Status ReadReply(uint64_t id, FrameType expected, const char* what,
                   const uint8_t** payload, size_t* payload_bytes);

  ScopedFd fd_;
  uint64_t next_request_id_ = 1;
  bool poisoned_ = false;
  obs::TraceContext last_trace_;
  std::string out_;  // frames being written; empty between calls
  // Received bytes: [in_begin_, in_end_) are not yet consumed. 16 KiB
  // from the first read, grown to the largest frame read since.
  std::vector<uint8_t> in_;
  size_t in_begin_ = 0;
  size_t in_end_ = 0;
};

}  // namespace vsim::net

#endif  // VSIM_NET_CLIENT_H_

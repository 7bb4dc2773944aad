// Client side of the wire protocol: a blocking connection to a `vsim
// serve` endpoint that speaks protocol.h frames. Used by the `vsim
// remote-query` CLI, bench/bench_remote_throughput and the loopback
// tests; the request/response types are the exact ServiceRequest /
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
// Thread-safety: a Client is confined to one thread. Concurrency comes
// from many clients (one per thread, as the bench does), not from
// sharing one.
#ifndef VSIM_NET_CLIENT_H_
#define VSIM_NET_CLIENT_H_

#include <cstdint>
#include <string>

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
  ScopedFd fd_;
  uint64_t next_request_id_ = 1;
  bool poisoned_ = false;
  obs::TraceContext last_trace_;
};

}  // namespace vsim::net

#endif  // VSIM_NET_CLIENT_H_

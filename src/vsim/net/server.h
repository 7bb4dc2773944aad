// TCP serving front-end over QueryService: accepts remote connections
// speaking the versioned wire protocol (protocol.h, docs/PROTOCOL.md)
// and dispatches every request into the service, so remote clients get
// the full serving stack -- admission control (kUnavailable), deadlines
// (kDeadlineExceeded), the result cache and online snapshot swaps --
// with errors propagated as wire status frames instead of string
// matching.
//
// Connections are served by a non-blocking epoll reactor (reactor.h)
// on a small fixed thread count (ServerOptions::reactor_threads),
// implementing the documented transport contract (docs/PROTOCOL.md
// §11). Each connection is a state machine (reading header -> reading
// body -> dispatched -> writing response); completed requests come
// back through QueryService::SubmitWithCallback on worker threads,
// which hand encoded frames to the owning event loop via an eventfd
// wakeup (result-cache hits complete on the event loop itself, during
// the submission). Responses on one connection are delivered in
// request order (HTTP/1.1-style pipelining); the per-connection
// max_pipeline window is enforced by pausing reads (EPOLLIN disarmed),
// on top of the service's own admission bound.
//
// Error containment: a malformed *payload* (bounds-checked decode
// failure) fails that one request with a wire status -- framing is
// still intact, so the connection survives. A malformed frame *header*
// (bad magic/version/type/length) means the byte stream can no longer
// be trusted; the server sends a connection-level status frame
// (request id 0) and closes. Either way the peer can never crash or
// hang the server (tests/net_server_test.cc and
// tests/net_hostile_test.cc feed both corpora to it).
//
// Graceful shutdown: Stop() closes the listener, stops reading from
// every connection, and drains -- every already-submitted request
// completes and its response is written before the sockets close, so no
// accepted request is ever silently dropped.
//
// Thread-safety: Start/Stop/port/stats are safe from any thread;
// internal shared state is annotated and mutex-guarded
// (VSIM_STATIC_ANALYSIS covers this header and server.cc).
#ifndef VSIM_NET_SERVER_H_
#define VSIM_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "vsim/common/status.h"
#include "vsim/common/thread_annotations.h"
#include "vsim/net/protocol.h"
#include "vsim/service/query_service.h"

namespace vsim::net {

class EpollReactor;

// The connection-handling strategy. The reactor is the only one; the
// one-value enum and ServerOptions::transport remain only because the
// servebench benchmark program still assigns them.
enum class Transport {
  kEpoll,  // non-blocking event loops on a fixed thread count
};

// Builds the metadata a remote client needs to extract wire-compatible
// query objects (the kInfoRequest handler).
ServerInfo MakeServerInfo(const DbSnapshot& snapshot);

// The kStatsRequest handler: metrics exposition + the trace summaries
// of the span ring's recent (or, with `slow_only`, slow) records, plus
// the §12 extensions -- those records' span trees when `include_spans`
// and the profiler sub-request (arm / disarm / collect against the
// process-wide obs::Profiler). Allocates; runs on an event-loop
// thread, never on the record path.
StatsResponse BuildStatsResponse(QueryService* service,
                                 const StatsRequest& request);

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;             // 0 = ephemeral; see Server::port()
  int max_connections = 64;  // beyond this, accepts get kUnavailable
  size_t max_pipeline = 128;  // per-connection in-flight window

  Transport transport = Transport::kEpoll;
  // Event-loop thread count. Loop 0 also owns the listening socket;
  // accepted connections are spread round-robin and stay pinned to one
  // loop for life. 2 is enough to saturate the worker pool on loopback;
  // result-cache hits are answered by the loops themselves, so a
  // hit-heavy load from several busy connections wants about one loop
  // each (docs/OPERATIONS.md "Capacity planning"). Values < 1 are
  // clamped to 1.
  int reactor_threads = 2;

  // 0 disables. A nonzero value bounds how long a stalled peer can pin
  // a connection: the reactor sweeps connections with no forward
  // progress for this long (connections paused by the server's own
  // pipeline backpressure are exempt). On expiry the connection
  // closes.
  double read_timeout_seconds = 0.0;

  // Response streaming granularity (smaller = more frames; tests use
  // tiny values to force multi-frame responses).
  uint32_t results_per_frame = kDefaultResultsPerFrame;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over the connection limit
  uint64_t requests_received = 0;
  uint64_t responses_sent = 0;  // completions written (incl. status frames)
  uint64_t protocol_errors = 0;  // malformed frames/payloads from peers
  uint64_t open_connections = 0;  // currently accepted and not closed
  uint64_t reactor_loop_iterations = 0;  // epoll_wait returns
  uint64_t coalesced_writes = 0;  // flushes merging >= 2 responses
  double read_stall_seconds = 0.0;  // time reads were backpressure-paused
};

// Counters shared by the reactor and the metrics collector. All
// relaxed; monotone except open_connections (a gauge).
struct NetCounters {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};
  std::atomic<uint64_t> requests_received{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> open_connections{0};
  std::atomic<uint64_t> reactor_loop_iterations{0};
  std::atomic<uint64_t> coalesced_writes{0};
  // Microseconds internally (atomic-friendly); exposed as seconds.
  std::atomic<uint64_t> read_stall_micros{0};
};

class Server {
 public:
  // `service` must outlive the server and is shared with any in-process
  // callers (the snapshot-swap machinery keeps working under remote
  // load -- see RemoteSwapTest.SwapUnderRemoteLoad).
  explicit Server(QueryService* service, ServerOptions options = {});

  // Stops and drains (Stop()) if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts the reactor. Fails with kIOError if the
  // address is taken. Call at most once.
  Status Start() EXCLUDES(mu_);

  // Graceful stop: no new connections, no new requests read, every
  // already-submitted request completes and its response is written
  // before the sockets close. Idempotent.
  void Stop() EXCLUDES(mu_);

  // The bound port (resolves an ephemeral request). 0 before Start.
  int port() const { return port_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  QueryService* const service_;  // not owned
  const ServerOptions options_;

  Mutex mu_{"net.server"};
  bool started_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;

  std::atomic<int> port_{0};

  NetCounters counters_;

  // Owns the listen fd and the event-loop threads once started.
  // Declared after counters_, which it references.
  std::unique_ptr<EpollReactor> reactor_;

  // The server folds its connection counters into the service's metric
  // registry (vsim_net_*) so one stats scrape covers the whole stack;
  // unregistered in the destructor, before the counters above die.
  int stats_collector_id_ = 0;
};

}  // namespace vsim::net

#endif  // VSIM_NET_SERVER_H_

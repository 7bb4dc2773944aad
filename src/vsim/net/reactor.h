// Epoll-based reactor, net::Server's transport: the wire contract of
// docs/PROTOCOL.md §11, served by a small fixed number of non-blocking
// event-loop threads whatever the connection count -- the shape that
// scales to thousands of concurrent clients (docs/OPERATIONS.md
// "Capacity planning").
//
// Topology. `reactor_threads` event loops, each with its own epoll
// instance and an eventfd for cross-thread wakeups. Loop 0 additionally
// owns the (non-blocking) listening socket; accepted connections are
// handed out round-robin and stay pinned to one loop for life, so all
// of a connection's socket I/O and parser state are confined to one
// thread -- no locking on the read/write hot path.
//
// Per-connection state machine. Bytes accumulate in an input buffer;
// complete frames are peeled off with the strict bounds-checked codec
// (protocol.h) and dispatched:
//
//   reading header -> reading body -> dispatched -> writing response
//
// A dispatched query goes through QueryService::SubmitWithCallback; the
// completion callback runs on a service worker, encodes the response
// frames there (off the event loop), fills the request's completion
// slot, and wakes the owning loop via its eventfd. A result-cache hit
// is answered during the submission itself: its callback runs on the
// loop thread inside the dispatch, encodes there and only fills the
// slot, which the flush after the parse sends. Slots form a
// per-connection FIFO; only the contiguous *done* prefix is flushed, so
// responses are delivered in request order. When one flush merges
// several completed responses into a single send, that is the
// write-coalescing path
// (vsim_net_coalesced_writes_total) -- streamed k-NN chunk frames of
// adjacent pipelined requests leave in one syscall.
//
// Backpressure. The per-connection window is ServerOptions::
// max_pipeline, enforced without blocking: a connection at its window
// stops being read (EPOLLIN disarmed; time spent paused is
// vsim_net_read_stall_seconds_total) until the flush drains it below
// the window. The service's own admission bound maps to per-request
// kUnavailable frames: SubmitWithCallback rejects synchronously and the
// rejection is queued as an already-done slot.
//
// Error containment mirrors server.h: malformed payload = one failed
// request, malformed header = connection-level status frame (request
// id 0) + close. A peer that disappears mid-frame is dropped silently
// (expected churn, not a protocol error).
//
// Shutdown. Stop() wakes every loop; each stops reading, keeps
// flushing until every in-flight request's response is on the wire,
// closes its drained connections and exits once no callbacks are
// outstanding. Worker callbacks hold shared_ptr references to their
// loop and connection, so a callback completing after its connection
// died writes into a slot nobody reads and wakes an eventfd that is
// closed only after the loop thread has been joined.
//
// Thread-safety: Start/Stop are safe from any thread (Server
// serializes them anyway). Shared loop/connection state is
// mutex-guarded and annotated; everything else is loop-confined.
#ifndef VSIM_NET_REACTOR_H_
#define VSIM_NET_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "vsim/common/status.h"
#include "vsim/common/thread_annotations.h"
#include "vsim/net/protocol.h"
#include "vsim/net/server.h"
#include "vsim/net/socket_util.h"
#include "vsim/service/query_service.h"

namespace vsim::net {

class EpollReactor {
 public:
  // `service` and `counters` must outlive the reactor; `options` is
  // copied. The reactor accounts through the server's NetCounters, which
  // Server::stats() and the vsim_net_* collector read.
  EpollReactor(QueryService* service, const ServerOptions& options,
               NetCounters* counters);

  // Stops and drains (Stop()) if still running.
  ~EpollReactor();

  EpollReactor(const EpollReactor&) = delete;
  EpollReactor& operator=(const EpollReactor&) = delete;

  // Takes ownership of a bound+listening socket (made non-blocking
  // here) and starts the event-loop threads. Call at most once.
  Status Start(ScopedFd listen_fd);

  // Graceful stop: no new connections, no new requests read, every
  // already-dispatched request completes and its response is written
  // before the sockets close. Idempotent.
  void Stop();

 private:
  using ClockT = std::chrono::steady_clock;

  // One pipelined request's completion slot. Slots sit in arrival
  // order; `done` flips when the response bytes are ready (filled by the
  // request callback for queries, immediately for info/stats/errors).
  struct Slot {
    uint64_t request_id = 0;
    bool done = false;
    bool close_after = false;  // connection-fatal: write, then close
    std::string bytes;         // complete encoded frames

    // Net-layer span bookkeeping for query slots (zero otherwise):
    // the trace identity plus stage timestamps. read/decode are set by
    // the loop at dispatch, encode by the request callback; the flush
    // stage is stamped by FlushConn, which publishes the tree
    // (docs/OBSERVABILITY.md "Tracing").
    obs::TraceContext trace;
    uint64_t read_ns = 0;
    uint64_t decode_ns = 0;
    uint64_t encode_start_ns = 0;
    uint64_t encode_end_ns = 0;
  };

  struct Conn {
    // -- Loop-confined: touched only by the owning loop thread. ------
    ScopedFd fd;
    std::string inbuf;        // unparsed wire bytes
    std::string outbuf;       // encoded frames awaiting send
    size_t outpos = 0;        // sent prefix of outbuf
    uint32_t armed = 0;       // EPOLLIN/EPOLLOUT currently registered
    bool read_paused = false;  // EPOLLIN off: pipeline window full
    bool closing = false;      // no more reads; flush, then close
    ClockT::time_point last_activity;  // last byte in or out
    ClockT::time_point pause_started;  // read_paused onset

    // -- Shared with worker callbacks. -------------------------------
    Mutex mu{"net.reactor.conn"};
    // Completion FIFO. A slot's sequence number is base_seq + its
    // index; callbacks locate their slot by sequence number, so a
    // flushed (popped) or discarded slot makes the lookup miss
    // harmlessly instead of dangling.
    std::deque<Slot> slots GUARDED_BY(mu);
    uint64_t base_seq GUARDED_BY(mu) = 0;
    // Set when the loop closed the connection; late callbacks no-op.
    bool dead GUARDED_BY(mu) = false;
  };

  struct Loop {
    int index = 0;
    ScopedFd epoll_fd;   // owned by the loop thread after Start
    std::thread thread;

    // Wakeup channel. Workers write it after filling a slot; the
    // shared mutex lets Stop() close the eventfd only once no callback
    // can still be writing it (writers take the shared side, the close
    // takes the exclusive side after the thread join).
    SharedMutex wake_mu{"net.reactor.wake"};
    ScopedFd wake_fd GUARDED_BY(wake_mu);
    bool wake_closed GUARDED_BY(wake_mu) = false;

    Mutex mu{"net.reactor.loop"};
    // Connections accepted by loop 0, awaiting adoption here.
    std::vector<std::shared_ptr<Conn>> incoming GUARDED_BY(mu);
    // Connections with freshly completed slots, awaiting a flush.
    std::vector<std::shared_ptr<Conn>> ready GUARDED_BY(mu);

    // Dispatched-but-uncompleted callbacks targeting this loop's
    // connections; the drain barrier at exit.
    std::atomic<uint64_t> pending_callbacks{0};

    // -- Loop-confined. ----------------------------------------------
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    bool draining = false;
  };

  void RunLoop(const std::shared_ptr<Loop>& loop);
  static void WakeLoop(Loop* loop);

  // Accept path (loop 0 only): drains accept(2), applies the
  // connection limit, spreads new connections round-robin.
  void HandleAccept(Loop* loop);
  void AdoptConn(Loop* loop, std::shared_ptr<Conn> conn);

  // Read path: pull bytes, peel frames, dispatch, flush, resume.
  void HandleReadable(Loop* loop, const std::shared_ptr<Conn>& conn);
  // Parses complete frames out of inbuf until it runs dry, the window
  // fills, or the connection turns fatal.
  void ParseFrames(Loop* loop, const std::shared_ptr<Conn>& conn);
  void DispatchFrame(Loop* loop, const std::shared_ptr<Conn>& conn,
                     const FrameHeader& header, const uint8_t* payload);
  // Appends an already-answered slot (info/stats/immediate errors).
  void EnqueueDoneSlot(const std::shared_ptr<Conn>& conn, Slot slot)
      EXCLUDES(conn->mu);
  // Connection-fatal framing error: status frame on `request_id` (0 =
  // connection-level, for unparseable headers), then close.
  void FatalProtocolError(Loop* loop, const std::shared_ptr<Conn>& conn,
                          uint64_t request_id, const Status& error);

  // Write path: move the contiguous done prefix of the slot FIFO into
  // outbuf (coalescing), then send until EAGAIN.
  void FlushConn(Loop* loop, const std::shared_ptr<Conn>& conn);
  void TrySend(Loop* loop, const std::shared_ptr<Conn>& conn);
  // Re-arms reads after backpressure if the window has space again;
  // returns true if leftover buffered bytes should be re-parsed.
  bool MaybeResumeReads(Loop* loop, const std::shared_ptr<Conn>& conn);
  // Closes the connection once it is both finished (closing/draining)
  // and fully flushed.
  void MaybeClose(Loop* loop, const std::shared_ptr<Conn>& conn);
  void CloseConn(Loop* loop, const std::shared_ptr<Conn>& conn);

  // epoll interest management (level-triggered; MOD only on change).
  void UpdateInterest(Loop* loop, Conn* conn);

  // Wake-driven work: adopt incoming connections, flush ready ones,
  // enter drain mode when stopping.
  void ProcessWakeWork(Loop* loop);
  // Idle-connection sweep implementing read_timeout_seconds.
  void SweepTimeouts(Loop* loop);

  QueryService* const service_;  // not owned
  const ServerOptions options_;
  NetCounters* const counters_;  // not owned; shared with net::Server

  ScopedFd listen_fd_;  // reset by loop 0 when draining begins
  std::vector<std::shared_ptr<Loop>> loops_;
  std::atomic<size_t> next_loop_{0};  // round-robin accept target
  std::atomic<bool> stopping_{false};
  bool started_ = false;  // Start/Stop discipline (Server serializes)
  bool stopped_ = false;
};

}  // namespace vsim::net

#endif  // VSIM_NET_REACTOR_H_

#include "vsim/net/reactor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

namespace vsim::net {

namespace {

// One recv per readable event (level-triggered epoll re-fires while
// bytes remain, which keeps connections fair on a shared loop).
constexpr size_t kReadChunkBytes = 64 * 1024;
// Compact the sent prefix of outbuf once it grows past this.
constexpr size_t kOutbufCompactBytes = 1u << 20;

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// The event loop this thread runs (nullptr off the loop threads). A
// request callback that finds its own loop here is running inside the
// dispatch of its frame: the service answered it at submission.
thread_local const void* this_thread_loop = nullptr;

}  // namespace

EpollReactor::EpollReactor(QueryService* service,
                           const ServerOptions& options,
                           NetCounters* counters)
    : service_(service), options_(options), counters_(counters) {}

EpollReactor::~EpollReactor() { Stop(); }

Status EpollReactor::Start(ScopedFd listen_fd) {
  if (started_) {
    return Status::FailedPrecondition("reactor already started");
  }
  started_ = true;
  listen_fd_ = std::move(listen_fd);
  VSIM_RETURN_NOT_OK(SetNonBlocking(listen_fd_.get()));
  const int num_loops =
      options_.reactor_threads < 1 ? 1 : options_.reactor_threads;
  for (int i = 0; i < num_loops; ++i) {
    auto loop = std::make_shared<Loop>();
    loop->index = i;
    loop->epoll_fd = ScopedFd(::epoll_create1(EPOLL_CLOEXEC));
    if (!loop->epoll_fd.valid()) return Errno("epoll_create1");
    const int wake = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake < 0) return Errno("eventfd");
    {
      WriterMutexLock lock(&loop->wake_mu);
      loop->wake_fd = ScopedFd(wake);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake;
    if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, wake, &ev) != 0) {
      return Errno("epoll_ctl(wake)");
    }
    if (i == 0) {
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.fd = listen_fd_.get();
      if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, listen_fd_.get(),
                      &lev) != 0) {
        return Errno("epoll_ctl(listen)");
      }
    }
    loops_.push_back(std::move(loop));
  }
  // Threads start only after every loop constructed cleanly, so a
  // failed Start leaves nothing to join.
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, loop] { RunLoop(loop); });
  }
  return Status::OK();
}

void EpollReactor::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) WakeLoop(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Only after the join can the eventfds close: a worker callback that
  // outlived its connection may still be reaching for the wakeup fd,
  // and the shared lock in WakeLoop is what it checks against.
  for (auto& loop : loops_) {
    WriterMutexLock lock(&loop->wake_mu);
    loop->wake_closed = true;
    loop->wake_fd.Reset();
  }
  listen_fd_.Reset();  // no-op when loop 0 already closed it
}

void EpollReactor::WakeLoop(Loop* loop) {
  ReaderMutexLock lock(&loop->wake_mu);
  if (loop->wake_closed) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n =
      ::write(loop->wake_fd.get(), &one, sizeof(one));
}

void EpollReactor::RunLoop(const std::shared_ptr<Loop>& loop_ref) {
  Loop* loop = loop_ref.get();
  this_thread_loop = loop;
  int wake_raw = -1;
  {
    ReaderMutexLock lock(&loop->wake_mu);
    wake_raw = loop->wake_fd.get();
  }
  const bool is_acceptor = loop->index == 0;
  std::array<epoll_event, 128> events;
  // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
  ClockT::time_point last_sweep = ClockT::now();
  for (;;) {
    // Block indefinitely when nothing is time-driven: every external
    // transition (completion, new connection, Stop) wakes the eventfd.
    int timeout_ms = -1;
    if (options_.read_timeout_seconds > 0 || loop->draining) {
      timeout_ms = 200;
    }
    const int n = ::epoll_wait(loop->epoll_fd.get(), events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    counters_->reactor_loop_iterations.fetch_add(1,
                                                 std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure; abandon the loop
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_raw) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t r =
            ::read(wake_raw, &drained, sizeof(drained));
        continue;
      }
      if (is_acceptor && listen_fd_.valid() && fd == listen_fd_.get()) {
        if (!stopping_.load(std::memory_order_acquire)) HandleAccept(loop);
        continue;
      }
      auto it = loop->conns.find(fd);
      if (it == loop->conns.end()) continue;  // closed earlier this batch
      std::shared_ptr<Conn> conn = it->second;  // keep alive across close
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0 && (ev & EPOLLIN) == 0) {
        // Peer reset with nothing left to read. (With EPOLLIN set the
        // read path surfaces whatever the socket has to say first.)
        CloseConn(loop, conn);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) TrySend(loop, conn);
      if (conn->fd.valid() && (ev & EPOLLIN) != 0 && !conn->read_paused &&
          !conn->closing) {
        HandleReadable(loop, conn);
      }
      if (conn->fd.valid()) MaybeClose(loop, conn);
    }
    ProcessWakeWork(loop);
    if (options_.read_timeout_seconds > 0) {
      // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
      const ClockT::time_point now = ClockT::now();
      if (now - last_sweep >= std::chrono::milliseconds(100)) {
        SweepTimeouts(loop);
        last_sweep = now;
      }
    }
    if (loop->draining) {
      bool queues_empty = false;
      {
        MutexLock lock(&loop->mu);
        queues_empty = loop->incoming.empty() && loop->ready.empty();
      }
      // Exit barrier: every connection flushed and closed, and no
      // worker callback still owes this loop a wakeup (decrements
      // happen before the wake, so 0 here means nothing is coming).
      if (queues_empty && loop->conns.empty() &&
          loop->pending_callbacks.load(std::memory_order_acquire) == 0) {
        break;
      }
    }
  }
}

void EpollReactor::HandleAccept(Loop* loop) {
  for (;;) {
    const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient failure epoll will retry for us
    }
    ScopedFd client(fd);
    if (counters_->open_connections.load(std::memory_order_relaxed) >=
        static_cast<uint64_t>(options_.max_connections)) {
      // Over the limit: tell the peer why before closing, mirroring the
      // service's admission-control contract. Best effort on a
      // non-blocking socket -- a full buffer just means the peer sees a
      // bare close instead of the reason.
      counters_->connections_rejected.fetch_add(1,
                                                std::memory_order_relaxed);
      std::string frame;
      AppendStatusFrame(
          0,
          Status::Unavailable(
              "connection limit reached (" +
              std::to_string(options_.max_connections) + " active)"),
          &frame);
      [[maybe_unused]] ssize_t sent =
          ::send(client.get(), frame.data(), frame.size(), MSG_NOSIGNAL);
      continue;  // ScopedFd closes the socket
    }
    counters_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    counters_->open_connections.fetch_add(1, std::memory_order_relaxed);
    const int one = 1;
    ::setsockopt(client.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = std::move(client);
    Loop* target =
        loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
               loops_.size()]
            .get();
    if (target == loop) {
      AdoptConn(loop, std::move(conn));
    } else {
      {
        MutexLock lock(&target->mu);
        target->incoming.push_back(std::move(conn));
      }
      WakeLoop(target);
    }
  }
}

void EpollReactor::AdoptConn(Loop* loop, std::shared_ptr<Conn> conn) {
  // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
  conn->last_activity = ClockT::now();
  if (loop->draining) {
    // Accepted after the drain began: nothing in flight; close now.
    {
      MutexLock lock(&conn->mu);
      conn->dead = true;
    }
    conn->fd.Reset();
    counters_->open_connections.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const int fd = conn->fd.get();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    {
      MutexLock lock(&conn->mu);
      conn->dead = true;
    }
    conn->fd.Reset();
    counters_->open_connections.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  conn->armed = EPOLLIN;
  loop->conns.emplace(fd, std::move(conn));
}

void EpollReactor::HandleReadable(Loop* loop,
                                  const std::shared_ptr<Conn>& conn) {
  char buf[kReadChunkBytes];
  const ssize_t n = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
  if (n > 0) {
    // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
    conn->last_activity = ClockT::now();
    conn->inbuf.append(buf, static_cast<size_t>(n));
    ParseFrames(loop, conn);
    if (!conn->fd.valid()) return;
    FlushConn(loop, conn);
    // A flush of synchronously answered slots (info/stats/rejections)
    // may have reopened the pipeline window for buffered bytes.
    while (MaybeResumeReads(loop, conn)) {
      ParseFrames(loop, conn);
      if (!conn->fd.valid()) return;
      FlushConn(loop, conn);
    }
    return;
  }
  if (n == 0) {
    // Clean EOF. A partial frame left in inbuf is expected teardown,
    // not a protocol error -- drain what was dispatched, then close.
    conn->closing = true;
    conn->inbuf.clear();
    UpdateInterest(loop, conn.get());
    return;
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
  CloseConn(loop, conn);  // ECONNRESET and friends: the peer is gone
}

void EpollReactor::ParseFrames(Loop* loop,
                               const std::shared_ptr<Conn>& conn) {
  size_t pos = 0;
  while (conn->fd.valid() && !conn->closing && !conn->read_paused) {
    const size_t avail = conn->inbuf.size() - pos;
    if (avail < kFrameHeaderBytes) break;
    FrameHeader header;
    Status decoded = DecodeFrameHeader(
        reinterpret_cast<const uint8_t*>(conn->inbuf.data()) + pos,
        kFrameHeaderBytes, &header);
    if (!decoded.ok()) {
      // The byte stream can no longer be trusted (bad magic / version /
      // type / length): connection-level error, then close.
      FatalProtocolError(loop, conn, 0, decoded);
      break;
    }
    if (avail < kFrameHeaderBytes + header.payload_bytes) break;
    DispatchFrame(
        loop, conn, header,
        reinterpret_cast<const uint8_t*>(conn->inbuf.data()) + pos +
            kFrameHeaderBytes);
    pos += kFrameHeaderBytes + header.payload_bytes;
    size_t in_flight = 0;
    {
      MutexLock lock(&conn->mu);
      in_flight = conn->slots.size();
    }
    if (in_flight >= options_.max_pipeline && !conn->closing) {
      // Pipeline window full: stop reading (and stop parsing -- the
      // leftover stays buffered) until the flush drains below the
      // window.
      conn->read_paused = true;
      // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
      conn->pause_started = ClockT::now();
      UpdateInterest(loop, conn.get());
    }
  }
  if (!conn->fd.valid()) return;
  if (conn->closing) {
    conn->inbuf.clear();
  } else if (pos > 0) {
    conn->inbuf.erase(0, pos);
  }
}

void EpollReactor::DispatchFrame(Loop* loop,
                                 const std::shared_ptr<Conn>& conn,
                                 const FrameHeader& header,
                                 const uint8_t* payload) {
  switch (header.type) {
    case FrameType::kInfoRequest: {
      Slot slot;
      slot.request_id = header.request_id;
      slot.done = true;
      AppendInfoResponseFrame(header.request_id,
                              MakeServerInfo(*service_->snapshot()),
                              &slot.bytes);
      EnqueueDoneSlot(conn, std::move(slot));
      return;
    }
    case FrameType::kStatsRequest: {
      Slot slot;
      slot.request_id = header.request_id;
      slot.done = true;
      StatsRequest stats_request;
      Status decoded = DecodeStatsRequestPayload(
          payload, header.payload_bytes, &stats_request);
      if (!decoded.ok()) {
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        AppendStatusFrame(header.request_id, decoded, &slot.bytes);
      } else {
        // Exposition, trace/span snapshots and profiler ops run on the
        // event loop (they allocate; the recording hot path does not).
        StatsResponse stats = BuildStatsResponse(service_, stats_request);
        AppendStatsResponseFrame(header.request_id, stats, &slot.bytes);
      }
      EnqueueDoneSlot(conn, std::move(slot));
      return;
    }
    case FrameType::kRequest: {
      counters_->requests_received.fetch_add(1, std::memory_order_relaxed);
      const uint64_t read_ns = obs::MonotonicNowNs();
      ServiceRequest request;
      Status decoded =
          DecodeRequestPayload(payload, header.payload_bytes, &request);
      if (!decoded.ok()) {
        // Framing is intact, so this poisons only the one request:
        // answer it with the decode error and keep the connection.
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        Slot slot;
        slot.request_id = header.request_id;
        slot.done = true;
        AppendStatusFrame(header.request_id, decoded, &slot.bytes);
        EnqueueDoneSlot(conn, std::move(slot));
        return;
      }
      // An untraced request still gets net- and service-layer trees
      // sharing one id: mint here, before the submit copies the
      // context into the service (docs/PROTOCOL.md §12).
      if (!request.trace.valid()) request.trace = obs::MintTraceContext();
      const obs::TraceContext trace = request.trace;
      const uint64_t decode_ns = obs::MonotonicNowNs();
      // Reserve the completion slot first; the callback finds it by
      // sequence number (robust to the slot having been discarded by a
      // close in the meantime).
      uint64_t seq = 0;
      {
        MutexLock lock(&conn->mu);
        seq = conn->base_seq + conn->slots.size();
        Slot slot;
        slot.request_id = header.request_id;
        slot.trace = trace;
        slot.read_ns = read_ns;
        slot.decode_ns = decode_ns;
        conn->slots.push_back(std::move(slot));
      }
      loop->pending_callbacks.fetch_add(1, std::memory_order_acq_rel);
      const uint64_t request_id = header.request_id;
      const uint32_t results_per_frame = options_.results_per_frame;
      std::shared_ptr<Loop> loop_ref = loops_[loop->index];
      Status submitted = service_->SubmitWithCallback(
          std::move(request),
          [loop_ref, conn, seq, request_id,
           results_per_frame](StatusOr<ServiceResponse> result) {
            // Runs on the service worker that executed the request, so
            // the loop only moves bytes -- or, for an answer the service
            // found in its result cache, right here on this loop inside
            // the dispatch. Service errors (kDeadlineExceeded,
            // validation, kOutOfRange after a shrinking swap) become
            // kStatus frames.
            const uint64_t encode_start_ns = obs::MonotonicNowNs();
            std::string bytes;
            if (result.ok()) {
              AppendResponseFrames(request_id, result.value(), &bytes,
                                   results_per_frame);
            } else {
              AppendStatusFrame(request_id, result.status(), &bytes);
            }
            const uint64_t encode_end_ns = obs::MonotonicNowNs();
            {
              MutexLock lock(&conn->mu);
              if (!conn->dead && seq >= conn->base_seq) {
                const size_t idx = static_cast<size_t>(seq - conn->base_seq);
                if (idx < conn->slots.size()) {
                  conn->slots[idx].bytes = std::move(bytes);
                  conn->slots[idx].encode_start_ns = encode_start_ns;
                  conn->slots[idx].encode_end_ns = encode_end_ns;
                  conn->slots[idx].done = true;
                }
              }
            }
            if (this_thread_loop == loop_ref.get()) {
              // Still inside this loop's dispatch: the FlushConn that
              // follows every ParseFrames sends the slot, so neither a
              // ready entry nor a wakeup is needed.
              loop_ref->pending_callbacks.fetch_sub(
                  1, std::memory_order_acq_rel);
              return;
            }
            {
              MutexLock lock(&loop_ref->mu);
              loop_ref->ready.push_back(conn);
            }
            // Decrement before the wake: a loop observing 0 during its
            // drain can trust nothing else is coming.
            loop_ref->pending_callbacks.fetch_sub(1,
                                                  std::memory_order_acq_rel);
            WakeLoop(loop_ref.get());
          });
      if (!submitted.ok()) {
        // Admission rejection: synchronous, the callback never runs.
        // Answer the reserved slot in place with the backpressure
        // status (kUnavailable), to be flushed with its neighbors.
        loop->pending_callbacks.fetch_sub(1, std::memory_order_acq_rel);
        std::string bytes;
        AppendStatusFrame(request_id, submitted, &bytes);
        MutexLock lock(&conn->mu);
        const size_t idx = static_cast<size_t>(seq - conn->base_seq);
        if (idx < conn->slots.size()) {
          conn->slots[idx].bytes = std::move(bytes);
          conn->slots[idx].done = true;
        }
      }
      return;
    }
    default: {
      // kResponse/kStatus/kInfoResponse are server->client only; a
      // peer sending one no longer speaks the protocol we expect.
      FatalProtocolError(
          loop, conn, header.request_id,
          Status::InvalidArgument(
              "unexpected client frame type " +
              std::to_string(static_cast<int>(header.type))));
      return;
    }
  }
}

void EpollReactor::EnqueueDoneSlot(const std::shared_ptr<Conn>& conn,
                                   Slot slot) {
  MutexLock lock(&conn->mu);
  conn->slots.push_back(std::move(slot));
}

void EpollReactor::FatalProtocolError(Loop* loop,
                                      const std::shared_ptr<Conn>& conn,
                                      uint64_t request_id,
                                      const Status& error) {
  counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  Slot slot;
  slot.request_id = request_id;
  slot.done = true;
  slot.close_after = true;
  AppendStatusFrame(request_id, error, &slot.bytes);
  EnqueueDoneSlot(conn, std::move(slot));
  conn->closing = true;
  UpdateInterest(loop, conn.get());
}

void EpollReactor::FlushConn(Loop* loop, const std::shared_ptr<Conn>& conn) {
  if (!conn->fd.valid()) return;
  bool close_after = false;
  size_t merged = 0;
  // Traced query slots popped this flush; their net-layer span trees
  // are published after the send so the flush span brackets the real
  // syscall work. Bookkeeping only -- the spans themselves live in a
  // stack SpanArena below.
  struct TracedSlot {
    obs::TraceContext trace;
    uint64_t request_id;
    uint64_t read_ns;
    uint64_t decode_ns;
    uint64_t encode_start_ns;
    uint64_t encode_end_ns;
  };
  std::vector<TracedSlot> traced;
  {
    MutexLock lock(&conn->mu);
    while (!conn->slots.empty() && conn->slots.front().done &&
           !close_after) {
      Slot& slot = conn->slots.front();
      conn->outbuf.append(slot.bytes);
      close_after = slot.close_after;
      if (slot.trace.valid()) {
        traced.push_back(TracedSlot{slot.trace, slot.request_id,
                                    slot.read_ns, slot.decode_ns,
                                    slot.encode_start_ns,
                                    slot.encode_end_ns});
      }
      conn->slots.pop_front();
      ++conn->base_seq;
      ++merged;
    }
    if (close_after) {
      // Everything queued behind a connection-fatal frame is
      // undeliverable; advancing base_seq makes any late callbacks
      // miss their (discarded) slots harmlessly.
      conn->base_seq += conn->slots.size();
      conn->slots.clear();
    }
  }
  if (merged == 0) return;
  counters_->responses_sent.fetch_add(merged, std::memory_order_relaxed);
  if (merged >= 2) {
    // The write-coalescing path: several completed responses leave in
    // one send below.
    counters_->coalesced_writes.fetch_add(1, std::memory_order_relaxed);
  }
  if (close_after) {
    conn->closing = true;
    conn->inbuf.clear();
  }
  const uint64_t flush_start_ns = obs::MonotonicNowNs();
  TrySend(loop, conn);
  if (!traced.empty()) {
    // Publish one net-layer tree per flushed query: accept (frame
    // read), decode, encode (in the callback) and this flush, all sharing
    // the request's wire trace id with the service-layer tree. A
    // coalesced flush charges the same send to every merged request --
    // exactly what the timeline should show.
    const uint64_t flush_end_ns = obs::MonotonicNowNs();
    for (const TracedSlot& t : traced) {
      obs::SpanArena arena(t.trace, t.request_id);
      arena.Add(obs::SpanName::kAccept, t.trace.parent_span_id, t.read_ns,
                t.read_ns);
      arena.Add(obs::SpanName::kDecode, t.trace.parent_span_id, t.read_ns,
                t.decode_ns);
      if (t.encode_end_ns != 0) {
        arena.Add(obs::SpanName::kEncode, t.trace.parent_span_id,
                  t.encode_start_ns, t.encode_end_ns);
      }
      arena.Add(obs::SpanName::kFlush, t.trace.parent_span_id,
                flush_start_ns, flush_end_ns);
      obs::SpanTreeRecord record;
      obs::RenderSpanTree(arena, obs::QueryTrace{}, &record);
      service_->span_ring().Record(record);
    }
  }
}

void EpollReactor::TrySend(Loop* loop, const std::shared_ptr<Conn>& conn) {
  if (!conn->fd.valid()) return;
  while (conn->outpos < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->outbuf.data() + conn->outpos,
               conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outpos += static_cast<size_t>(n);
      // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
      conn->last_activity = ClockT::now();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(loop, conn);  // peer gone; remaining bytes have no reader
    return;
  }
  if (conn->outpos >= conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outpos = 0;
  } else if (conn->outpos >= kOutbufCompactBytes) {
    conn->outbuf.erase(0, conn->outpos);
    conn->outpos = 0;
  }
  UpdateInterest(loop, conn.get());
}

bool EpollReactor::MaybeResumeReads(Loop* loop,
                                    const std::shared_ptr<Conn>& conn) {
  if (!conn->fd.valid() || !conn->read_paused || conn->closing) {
    return false;
  }
  size_t in_flight = 0;
  {
    MutexLock lock(&conn->mu);
    in_flight = conn->slots.size();
  }
  if (in_flight >= options_.max_pipeline) return false;
  conn->read_paused = false;
  counters_->read_stall_micros.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
              ClockT::now() - conn->pause_started)
              .count()),
      std::memory_order_relaxed);
  UpdateInterest(loop, conn.get());
  return !conn->inbuf.empty();  // leftover bytes may hold whole frames
}

void EpollReactor::MaybeClose(Loop* loop, const std::shared_ptr<Conn>& conn) {
  if (!conn->fd.valid() || !conn->closing) return;
  bool drained = false;
  {
    MutexLock lock(&conn->mu);
    drained = conn->slots.empty();
  }
  if (drained && conn->outpos >= conn->outbuf.size()) {
    CloseConn(loop, conn);
  }
}

void EpollReactor::CloseConn(Loop* loop, const std::shared_ptr<Conn>& conn) {
  if (!conn->fd.valid()) return;
  const int fd = conn->fd.get();
  ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_DEL, fd, nullptr);
  {
    MutexLock lock(&conn->mu);
    conn->dead = true;
    conn->base_seq += conn->slots.size();
    conn->slots.clear();
  }
  conn->fd.Reset();
  loop->conns.erase(fd);
  counters_->open_connections.fetch_sub(1, std::memory_order_relaxed);
}

void EpollReactor::UpdateInterest(Loop* loop, Conn* conn) {
  if (!conn->fd.valid()) return;
  uint32_t want = 0;
  if (!conn->read_paused && !conn->closing) want |= EPOLLIN;
  if (conn->outpos < conn->outbuf.size()) want |= EPOLLOUT;
  if (want == conn->armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd.get();
  if (::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_MOD, conn->fd.get(),
                  &ev) == 0) {
    conn->armed = want;
  }
}

void EpollReactor::ProcessWakeWork(Loop* loop) {
  if (stopping_.load(std::memory_order_acquire) && !loop->draining) {
    loop->draining = true;
    if (loop->index == 0 && listen_fd_.valid()) {
      ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_DEL, listen_fd_.get(),
                  nullptr);
      listen_fd_.Reset();
    }
    // Stop reading everywhere; what has been dispatched still gets its
    // answer (the drain barrier in RunLoop waits for it).
    std::vector<std::shared_ptr<Conn>> snapshot;
    snapshot.reserve(loop->conns.size());
    for (auto& entry : loop->conns) snapshot.push_back(entry.second);
    for (auto& conn : snapshot) {
      conn->closing = true;
      conn->inbuf.clear();
      UpdateInterest(loop, conn.get());
      MaybeClose(loop, conn);  // idle connections close immediately
    }
  }
  std::vector<std::shared_ptr<Conn>> incoming;
  std::vector<std::shared_ptr<Conn>> ready;
  {
    MutexLock lock(&loop->mu);
    incoming.swap(loop->incoming);
    ready.swap(loop->ready);
  }
  for (auto& conn : incoming) AdoptConn(loop, std::move(conn));
  for (auto& conn : ready) {
    bool dead = false;
    {
      MutexLock lock(&conn->mu);
      dead = conn->dead;
    }
    if (dead) continue;
    FlushConn(loop, conn);
    while (MaybeResumeReads(loop, conn)) {
      ParseFrames(loop, conn);
      if (!conn->fd.valid()) break;
      FlushConn(loop, conn);
    }
    if (conn->fd.valid()) MaybeClose(loop, conn);
  }
}

void EpollReactor::SweepTimeouts(Loop* loop) {
  // vsim-lint: allow(raw-clock) idle/backpressure housekeeping on chrono time_points, not span timing
  const ClockT::time_point now = ClockT::now();
  const auto limit = std::chrono::duration_cast<ClockT::duration>(
      std::chrono::duration<double>(options_.read_timeout_seconds));
  std::vector<std::shared_ptr<Conn>> victims;
  for (auto& entry : loop->conns) {
    const std::shared_ptr<Conn>& conn = entry.second;
    // A connection paused by our own backpressure is stalled by us,
    // not by the peer; it is exempt until reads resume.
    if (conn->read_paused) continue;
    if (now - conn->last_activity <= limit) continue;
    victims.push_back(conn);
  }
  for (auto& conn : victims) {
    if (!conn->fd.valid()) continue;
    if (conn->closing) {
      // Already draining. If the peer is not consuming its responses
      // either, nothing will ever move again: cut it loose. (An empty
      // outbuf means we are waiting on the service, not the peer --
      // keep waiting.)
      if (conn->outpos < conn->outbuf.size()) CloseConn(loop, conn);
      continue;
    }
    // Read timeout: stop reading, flush what was dispatched, then close.
    conn->closing = true;
    conn->inbuf.clear();
    UpdateInterest(loop, conn.get());
    MaybeClose(loop, conn);
  }
}

}  // namespace vsim::net

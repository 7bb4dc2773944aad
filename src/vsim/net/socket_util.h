// Thin portable-POSIX socket helpers shared by net::Server and
// net::Client: RAII fd ownership, full-buffer read/write loops that
// retry EINTR, TCP listen/connect with IPv4 dotted-quad addresses, and
// a blocking frame-read loop (header validation via protocol.h,
// payload bounded before allocation).
//
// WriteAll serves the client, which reads through its own buffer
// (client.h); ReadFull and ReadFrame read exactly one frame's bytes, for
// peers that speak raw frames (the tests). The epoll reactor
// (src/vsim/net/reactor.h) flips its fds non-blocking via
// SetNonBlocking and does its own readiness-driven recv/send loops.
//
// Thread-safety: free functions are stateless. A ScopedFd is owned by
// one thread at a time.
#ifndef VSIM_NET_SOCKET_UTIL_H_
#define VSIM_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <string>
#include <utility>

#include "vsim/common/status.h"
#include "vsim/net/protocol.h"

namespace vsim::net {

// Owns a file descriptor; closes on destruction. Movable, not copyable.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int Release() { return std::exchange(fd_, -1); }
  void Reset();

 private:
  int fd_ = -1;
};

// Writes all `size` bytes, retrying EINTR and partial writes.
Status WriteAll(int fd, const void* data, size_t size);

// Reads exactly `size` bytes. EOF before the first byte sets
// *clean_eof = true and returns OK with nothing read (the caller's
// loop-exit signal); EOF mid-buffer is a kIOError.
Status ReadFull(int fd, void* data, size_t size, bool* clean_eof);

// Reads one complete frame: header (validated) + payload (bounded by
// max_payload_bytes before allocation). Clean EOF at a frame boundary
// sets *clean_eof and returns OK with an untouched header.
Status ReadFrame(int fd, FrameHeader* header, std::string* payload,
                 bool* clean_eof,
                 size_t max_payload_bytes = kMaxFramePayloadBytes);

// IPv4 listen socket on host:port (dotted quad; port 0 = ephemeral),
// SO_REUSEADDR set, backlog applied.
StatusOr<ScopedFd> ListenTcp(const std::string& host, int port,
                             int backlog = 64);

// Blocking IPv4 connect; TCP_NODELAY set (the protocol pipelines small
// frames, so Nagle coalescing only adds latency).
StatusOr<ScopedFd> ConnectTcp(const std::string& host, int port);

// The locally bound port of a socket (resolves port 0 after bind).
StatusOr<int> LocalPort(int fd);

// Puts the fd into O_NONBLOCK mode (the reactor's accept, recv and
// send paths all require it).
Status SetNonBlocking(int fd);

}  // namespace vsim::net

#endif  // VSIM_NET_SOCKET_UTIL_H_

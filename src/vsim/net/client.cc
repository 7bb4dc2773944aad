#include "vsim/net/client.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace vsim::net {

namespace {

// The receive buffer's size until a frame needs more: one recv takes up
// to this much, a pipelined window of small responses at once.
constexpr size_t kReadBufferBytes = 16 * 1024;

}  // namespace

StatusOr<Client> Client::Connect(const std::string& host, int port) {
  StatusOr<ScopedFd> fd = ConnectTcp(host, port);
  VSIM_RETURN_NOT_OK(fd.status());
  Client client;
  client.fd_ = std::move(fd).value();
  return client;
}

Status Client::Flush() {
  Status written = WriteAll(fd_.get(), out_.data(), out_.size());
  out_.clear();
  if (!written.ok()) poisoned_ = true;
  return written;
}

Status Client::Send(const ServiceRequest& request, uint64_t* request_id) {
  if (!ok()) return Status::FailedPrecondition("client is not connected");
  *request_id = next_request_id_++;
  // The client is the root of the distributed trace: a request without
  // one gets its 16-byte id minted here, so the server's net- and
  // service-layer trees (and, later, any scatter-gather shards) all
  // hang off one identity.
  last_trace_ =
      request.trace.valid() ? request.trace : obs::MintTraceContext();
  AppendRequestFrame(*request_id, request, last_trace_, &out_);
  return Flush();
}

Status Client::Fill(size_t bytes, bool* clean_eof) {
  if (in_begin_ == in_end_) in_begin_ = in_end_ = 0;
  while (in_end_ - in_begin_ < bytes) {
    const size_t unread = in_end_ - in_begin_;
    if (in_.size() - in_begin_ < bytes) {
      // No room for the frame behind the unread bytes: move them to the
      // front, and grow to hold the frame (its header has passed the
      // payload cap by now).
      if (unread > 0) std::memmove(in_.data(), in_.data() + in_begin_, unread);
      in_begin_ = 0;
      in_end_ = unread;
      if (in_.size() < bytes) in_.resize(std::max(bytes, kReadBufferBytes));
    }
    const ssize_t n =
        ::recv(fd_.get(), in_.data() + in_end_, in_.size() - in_end_, 0);
    if (n > 0) {
      in_end_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (unread == 0 && clean_eof != nullptr) {
      *clean_eof = true;
      return Status::OK();
    }
    return Status::IOError("connection closed mid-frame (" +
                           std::to_string(unread) + "/" +
                           std::to_string(bytes) + " bytes)");
  }
  return Status::OK();
}

Status Client::NextFrame(FrameHeader* header, const uint8_t** payload,
                         bool* clean_eof) {
  *clean_eof = false;
  VSIM_RETURN_NOT_OK(Fill(kFrameHeaderBytes, clean_eof));
  if (*clean_eof) return Status::OK();
  VSIM_RETURN_NOT_OK(
      DecodeFrameHeader(in_.data() + in_begin_, kFrameHeaderBytes, header));
  const size_t frame_bytes = kFrameHeaderBytes + header->payload_bytes;
  VSIM_RETURN_NOT_OK(Fill(frame_bytes, nullptr));
  *payload = in_.data() + in_begin_ + kFrameHeaderBytes;
  in_begin_ += frame_bytes;
  return Status::OK();
}

StatusOr<ServiceResponse> Client::Receive(uint64_t* request_id) {
  if (!ok()) return Status::FailedPrecondition("client is not connected");
  ResponseAssembler assembler;
  bool streaming = false;
  while (true) {
    FrameHeader header;
    const uint8_t* data = nullptr;
    bool clean_eof = false;
    Status read_status = NextFrame(&header, &data, &clean_eof);
    if (read_status.ok() && clean_eof) {
      read_status =
          Status::IOError("server closed the connection mid-completion");
    }
    if (!read_status.ok()) {
      poisoned_ = true;
      return read_status;
    }
    switch (header.type) {
      case FrameType::kStatus: {
        Status remote;
        Status decoded =
            DecodeStatusPayload(data, header.payload_bytes, &remote);
        if (!decoded.ok()) {
          poisoned_ = true;
          return decoded;
        }
        if (streaming || header.request_id == 0) {
          // Mid-stream errors and connection-level errors (id 0: the
          // connection-limit rejection, a fatal framing complaint) mean
          // subsequent completions can no longer be trusted.
          poisoned_ = true;
        }
        if (request_id != nullptr) *request_id = header.request_id;
        return remote;
      }
      case FrameType::kResponse: {
        streaming = true;
        Status added = assembler.Add(data, header.payload_bytes,
                                     (header.flags & kFlagFinal) != 0);
        if (!added.ok()) {
          poisoned_ = true;
          return added;
        }
        if (assembler.complete()) {
          if (request_id != nullptr) *request_id = header.request_id;
          return assembler.Take();
        }
        break;  // more chunks of this response follow
      }
      default: {
        poisoned_ = true;
        return Status::InvalidArgument(
            "unexpected server frame type " +
            std::to_string(static_cast<int>(header.type)) +
            " while waiting for a query completion");
      }
    }
  }
}

StatusOr<ServiceResponse> Client::Execute(const ServiceRequest& request) {
  uint64_t id = 0;
  VSIM_RETURN_NOT_OK(Send(request, &id));
  uint64_t got = 0;
  StatusOr<ServiceResponse> response = Receive(&got);
  if (response.ok() && got != id) {
    poisoned_ = true;
    return Status::Internal("response id " + std::to_string(got) +
                            " does not match request id " +
                            std::to_string(id));
  }
  return response;
}

Status Client::ReadReply(uint64_t id, FrameType expected, const char* what,
                         const uint8_t** payload, size_t* payload_bytes) {
  FrameHeader header;
  bool clean_eof = false;
  Status read_status = NextFrame(&header, payload, &clean_eof);
  if (read_status.ok() && clean_eof) {
    read_status = Status::IOError("server closed the connection");
  }
  if (!read_status.ok()) {
    poisoned_ = true;
    return read_status;
  }
  *payload_bytes = header.payload_bytes;
  if (header.type == FrameType::kStatus) {
    // Info and stats requests fail only at connection level (a
    // pre-stats server answers the unknown frame type with a fatal
    // status and closes): surface it, and poison.
    poisoned_ = true;
    Status remote;
    VSIM_RETURN_NOT_OK(DecodeStatusPayload(*payload, *payload_bytes, &remote));
    return remote;
  }
  if (header.type != expected || header.request_id != id) {
    poisoned_ = true;
    return Status::InvalidArgument(
        std::string("expected ") + what + ", got frame type " +
        std::to_string(static_cast<int>(header.type)));
  }
  return Status::OK();
}

StatusOr<ServerInfo> Client::Info() {
  if (!ok()) return Status::FailedPrecondition("client is not connected");
  const uint64_t id = next_request_id_++;
  AppendInfoRequestFrame(id, &out_);
  VSIM_RETURN_NOT_OK(Flush());
  const uint8_t* payload = nullptr;
  size_t payload_bytes = 0;
  VSIM_RETURN_NOT_OK(ReadReply(id, FrameType::kInfoResponse,
                               "an info response", &payload,
                               &payload_bytes));
  ServerInfo info;
  Status decoded = DecodeInfoResponsePayload(payload, payload_bytes, &info);
  if (!decoded.ok()) {
    poisoned_ = true;
    return decoded;
  }
  return info;
}

StatusOr<StatsResponse> Client::Stats(uint32_t max_traces, bool slow_only) {
  StatsRequest request;
  request.max_traces = std::min(max_traces, kMaxWireTraces);
  request.slow_only = slow_only;
  return Stats(request);
}

StatusOr<StatsResponse> Client::Stats(const StatsRequest& request) {
  if (!ok()) return Status::FailedPrecondition("client is not connected");
  const uint64_t id = next_request_id_++;
  AppendStatsRequestFrame(id, request, &out_);
  VSIM_RETURN_NOT_OK(Flush());
  const uint8_t* payload = nullptr;
  size_t payload_bytes = 0;
  VSIM_RETURN_NOT_OK(ReadReply(id, FrameType::kStatsResponse,
                               "a stats response", &payload,
                               &payload_bytes));
  StatsResponse response;
  Status decoded =
      DecodeStatsResponsePayload(payload, payload_bytes, &response);
  if (!decoded.ok()) {
    poisoned_ = true;
    return decoded;
  }
  return response;
}

}  // namespace vsim::net

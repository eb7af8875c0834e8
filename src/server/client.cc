#include "src/server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace gqzoo {
namespace server {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<Client> Client::Connect(const std::string& host, uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Error(ErrorCode::kUnavailable,
                 std::string("socket: ") + strerror(errno));
  }
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* ip = (host.empty() || host == "localhost") ? "127.0.0.1"
                                                         : host.c_str();
  if (inet_pton(AF_INET, ip, &addr.sin_addr) != 1) {
    close(fd);
    return Error(ErrorCode::kInvalidArgument, "bad host '" + host + "'");
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::string err = strerror(errno);
    close(fd);
    return Error(ErrorCode::kUnavailable, "connect: " + err);
  }
  // Frames are small and latency matters more than throughput here.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Result<bool> Client::Hello(const std::string& tenant,
                           const std::string& default_language,
                           uint32_t default_timeout_ms) {
  std::string payload;
  AppendString(&payload, tenant);
  AppendString(&payload, default_language);
  AppendU32(&payload, default_timeout_ms);
  Result<bool> sent = WriteFrame(fd_, FrameType::kHello, payload);
  if (!sent.ok()) return sent.error();
  Result<Frame> reply = ReadFrame(fd_);
  if (!reply.ok()) return reply.error();
  if (reply.value().type == FrameType::kDone) {
    Result<DoneStatus> done = DecodeDone(reply.value().payload);
    if (done.ok() && !done.value().ok) {
      return Error(done.value().code, done.value().message);
    }
    return Error("unexpected DONE in HELLO reply");
  }
  if (reply.value().type != FrameType::kHelloOk) {
    return Error("unexpected HELLO reply frame");
  }
  return true;
}

Result<bool> Client::StartQuery(const std::string& text,
                                const ClientQueryOptions& options) {
  std::string payload;
  AppendString(&payload, options.language);
  AppendString(&payload, text);
  AppendU32(&payload, options.timeout_ms);
  AppendU32(&payload, options.max_display_rows);
  AppendU8(&payload, options.explain ? kQueryFlagExplain : 0);
  AppendString(&payload, options.paths_from);
  AppendString(&payload, options.paths_to);
  AppendU8(&payload, options.paths_mode);
  AppendU32(&payload, options.k_shortest);
  return WriteFrame(fd_, FrameType::kQuery, payload);
}

Result<DoneStatus> Client::Query(
    const std::string& text, const ClientQueryOptions& options,
    const std::function<bool(std::string_view)>& on_chunk) {
  Result<bool> sent = StartQuery(text, options);
  if (!sent.ok()) return sent.error();

  bool cancelled = false;
  while (true) {
    Result<Frame> frame = ReadFrame(fd_);
    if (!frame.ok()) return frame.error();
    if (frame.value().type == FrameType::kRows) {
      if (on_chunk != nullptr && !cancelled &&
          !on_chunk(frame.value().payload)) {
        cancelled = true;
        (void)SendCancel();  // keep draining until the DONE arrives
      }
      continue;
    }
    if (frame.value().type == FrameType::kDone) {
      return DecodeDone(frame.value().payload);
    }
    return Error("unexpected frame in QUERY stream");
  }
}

Result<DoneStatus> Client::Mutate(const std::vector<std::string>& ops) {
  std::string payload;
  AppendU32(&payload, static_cast<uint32_t>(ops.size()));
  for (const std::string& op : ops) AppendString(&payload, op);
  Result<bool> sent = WriteFrame(fd_, FrameType::kMutate, payload);
  if (!sent.ok()) return sent.error();
  Result<Frame> reply = ReadFrame(fd_);
  if (!reply.ok()) return reply.error();
  if (reply.value().type != FrameType::kDone) {
    return Error("unexpected MUTATE reply frame");
  }
  return DecodeDone(reply.value().payload);
}

Result<std::string> Client::Stats() {
  Result<bool> sent = WriteFrame(fd_, FrameType::kStats, "");
  if (!sent.ok()) return sent.error();
  std::string text;
  while (true) {
    Result<Frame> frame = ReadFrame(fd_);
    if (!frame.ok()) return frame.error();
    if (frame.value().type == FrameType::kStatsText) {
      text += frame.value().payload;
      continue;
    }
    if (frame.value().type == FrameType::kDone) {
      Result<DoneStatus> done = DecodeDone(frame.value().payload);
      if (!done.ok()) return done.error();
      if (!done.value().ok) {
        return Error(done.value().code, done.value().message);
      }
      return text;
    }
    return Error("unexpected frame in STATS reply");
  }
}

Result<bool> Client::SendCancel() {
  return WriteFrame(fd_, FrameType::kCancel, "");
}

}  // namespace server
}  // namespace gqzoo

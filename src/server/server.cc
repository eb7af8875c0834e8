#include "src/server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <netinet/in.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

#include "src/graph/delta/delta.h"

namespace gqzoo {
namespace server {

namespace {

/// A query whose accounted footprint reached this frees megabytes of
/// small join and binding blocks into the worker's malloc arena.
constexpr uint64_t kReleaseHeapAfterBytes = 1 << 20;

/// Hands the free pages of every malloc arena back to the kernel. On its
/// own glibc returns an arena's memory only from the top, so one block
/// still in use above a heavy query's freed blocks keeps all of them
/// resident, and how much stays depends on which worker ran which query.
/// A call walks every arena even with nothing to release (tens of
/// microseconds), so it runs only after queries past
/// kReleaseHeapAfterBytes.
void ReleaseFreeHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// RowSink that forwards each chunk as a ROWS frame. A failed write
/// (peer vanished mid-stream) returns false, which makes the engine
/// abandon the stream and cancel the query.
class SocketSink : public RowSink {
 public:
  SocketSink(int fd, MetricsRegistry* metrics)
      : fd_(fd), metrics_(metrics) {}

  bool Write(std::string_view chunk) override {
    if (!WriteFrame(fd_, FrameType::kRows, chunk).ok()) return false;
    metrics_->server_stream_chunks.Increment();
    metrics_->server_stream_bytes.Increment(chunk.size());
    return true;
  }

 private:
  int fd_;
  MetricsRegistry* metrics_;
};

DoneStatus ErrorDone(ErrorCode code, std::string message) {
  DoneStatus status;
  status.ok = false;
  status.code = code;
  status.message = std::move(message);
  return status;
}

}  // namespace

GraphServer::GraphServer(QueryEngine* engine, ServerOptions options)
    : engine_(engine), options_(options), quotas_(options.quota) {}

GraphServer::~GraphServer() { Shutdown(); }

Result<bool> GraphServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Error(ErrorCode::kUnavailable,
                 std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0) {
    std::string err = strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Error(ErrorCode::kUnavailable, "bind/listen: " + err);
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
              &addr_len);
  port_ = ntohs(addr.sin_port);
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void GraphServer::AcceptLoop() {
  while (!draining_.load()) {
    if (!WaitReadable(listen_fd_, 200)) {
      // Idle tick: reap sessions whose threads have finished, so a
      // long-lived server does not accumulate dead connection state.
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if ((*it)->done.load()) {
          (*it)->thread.join();
          close((*it)->fd);
          it = sessions_.erase(it);
        } else {
          ++it;
        }
      }
      continue;
    }
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (draining_.load()) {
      (void)WriteFrame(fd, FrameType::kDone,
                       EncodeDone(ErrorDone(ErrorCode::kUnavailable,
                                            "server is draining")));
      close(fd);
      continue;
    }
    size_t active = active_sessions_.load();
    if (options_.max_sessions != 0 && active >= options_.max_sessions) {
      (void)WriteFrame(fd, FrameType::kDone,
                       EncodeDone(ErrorDone(ErrorCode::kOverloaded,
                                            "session limit reached")));
      close(fd);
      continue;
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    active = active_sessions_.fetch_add(1) + 1;
    MetricsRegistry& metrics = engine_->metrics();
    metrics.server_sessions_total.Increment();
    metrics.server_connections.Set(active);
    metrics.server_connections_high_water.Update(active);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session->thread = std::thread([this, raw] { Serve(raw); });
      sessions_.push_back(std::move(session));
    }
  }
}

void GraphServer::Serve(Session* session) {
  while (!stopping_.load()) {
    if (!WaitReadable(session->fd, 200)) continue;
    Result<Frame> frame = ReadFrame(session->fd);
    if (!frame.ok()) break;  // EOF or torn frame: the session is over
    bool keep_going = true;
    switch (frame.value().type) {
      case FrameType::kHello:
        HandleHello(session, frame.value().payload);
        break;
      case FrameType::kQuery:
        HandleQuery(session, frame.value().payload);
        keep_going = !session->peer_gone;
        break;
      case FrameType::kMutate:
        HandleMutate(session, frame.value().payload);
        break;
      case FrameType::kStats:
        keep_going =
            WriteFrame(session->fd, FrameType::kStatsText, StatsReport())
                .ok() &&
            WriteFrame(session->fd, FrameType::kDone,
                       EncodeDone(DoneStatus{}))
                .ok();
        break;
      case FrameType::kCancel:
        break;  // no query outstanding; nothing to cancel
      default:
        (void)WriteFrame(
            session->fd, FrameType::kDone,
            EncodeDone(ErrorDone(ErrorCode::kInvalidArgument,
                                 "unexpected frame type")));
        keep_going = false;
        break;
    }
    if (!keep_going) break;
  }
  size_t active = active_sessions_.fetch_sub(1) - 1;
  engine_->metrics().server_connections.Set(active);
  session->done.store(true);
}

void GraphServer::HandleHello(Session* session, const std::string& payload) {
  PayloadReader reader(payload);
  std::string tenant;
  std::string language;
  uint32_t timeout_ms = 0;
  reader.ReadString(&tenant);
  reader.ReadString(&language);
  reader.ReadU32(&timeout_ms);
  if (!reader.ok()) {
    (void)WriteFrame(session->fd, FrameType::kDone,
                     EncodeDone(ErrorDone(ErrorCode::kInvalidArgument,
                                          "malformed HELLO")));
    return;
  }
  if (!language.empty()) {
    Result<QueryLanguage> parsed = ParseQueryLanguage(language);
    if (!parsed.ok()) {
      (void)WriteFrame(
          session->fd, FrameType::kDone,
          EncodeDone(ErrorDone(ErrorCode::kInvalidArgument,
                               parsed.error().message())));
      return;
    }
    session->default_language = parsed.value();
  }
  if (!tenant.empty()) session->tenant = tenant;
  session->default_timeout_ms = timeout_ms;
  std::string banner;
  AppendString(&banner, "gqzoo/1 ready");
  (void)WriteFrame(session->fd, FrameType::kHelloOk, banner);
}

bool GraphServer::DecodeQuery(Session* session, const std::string& payload,
                              QueryRequest* out, std::string* error) {
  PayloadReader reader(payload);
  std::string language;
  std::string text;
  uint32_t timeout_ms = 0;
  uint32_t max_display_rows = 0;
  uint8_t flags = 0;
  std::string paths_from;
  std::string paths_to;
  uint8_t paths_mode = 0;
  uint32_t k_shortest = 0;
  reader.ReadString(&language);
  reader.ReadString(&text);
  reader.ReadU32(&timeout_ms);
  reader.ReadU32(&max_display_rows);
  reader.ReadU8(&flags);
  reader.ReadString(&paths_from);
  reader.ReadString(&paths_to);
  reader.ReadU8(&paths_mode);
  reader.ReadU32(&k_shortest);
  if (!reader.ok()) {
    *error = "malformed QUERY payload";
    return false;
  }
  if ((flags & ~kQueryFlagExplain) != 0) {
    *error = "malformed QUERY payload: unknown flags " +
             std::to_string(flags);
    return false;
  }
  if (paths_mode > 3) {
    *error = "malformed QUERY payload: paths_mode " +
             std::to_string(paths_mode) + " is not 0-3";
    return false;
  }
  QueryRequest request;
  if (language.empty()) {
    request.language = session->default_language;
  } else {
    Result<QueryLanguage> parsed = ParseQueryLanguage(language);
    if (!parsed.ok()) {
      *error = parsed.error().message();
      return false;
    }
    request.language = parsed.value();
  }
  request.text = std::move(text);
  if (timeout_ms == 0) timeout_ms = session->default_timeout_ms;
  if (timeout_ms > 0) {
    request.timeout = std::chrono::milliseconds(timeout_ms);
  }
  if (max_display_rows > 0) request.max_display_rows = max_display_rows;
  request.explain = flags == kQueryFlagExplain;
  request.paths.from = std::move(paths_from);
  request.paths.to = std::move(paths_to);
  request.paths.mode = paths_mode == 1   ? PathMode::kShortest
                       : paths_mode == 2 ? PathMode::kSimple
                       : paths_mode == 3 ? PathMode::kTrail
                                         : PathMode::kAll;
  request.paths.k_shortest = k_shortest;
  *out = std::move(request);
  return true;
}

void GraphServer::HandleQuery(Session* session, const std::string& payload) {
  MetricsRegistry& metrics = engine_->metrics();
  metrics.server_queries.Increment();
  QueryRequest request;
  std::string error;
  if (!DecodeQuery(session, payload, &request, &error)) {
    (void)WriteFrame(
        session->fd, FrameType::kDone,
        EncodeDone(ErrorDone(ErrorCode::kInvalidArgument, error)));
    return;
  }

  auto cancel = std::make_shared<std::atomic<bool>>(false);
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->active_cancel = cancel;
    session->drain_cancelled = false;
  }
  // busy is published before the draining check; Shutdown sets draining
  // before scanning busy sessions, so a query racing the drain is either
  // shed here or seen (and waited for / cancelled) by the drain.
  session->busy.store(true);
  if (draining_.load()) {
    session->busy.store(false);
    metrics.server_drain_shed.Increment();
    (void)WriteFrame(session->fd, FrameType::kDone,
                     EncodeDone(ErrorDone(ErrorCode::kUnavailable,
                                          "server is draining")));
    return;
  }
  if (!quotas_.TryAcquire(session->tenant)) {
    session->busy.store(false);
    metrics.tenant_quota_shed.Increment();
    (void)WriteFrame(
        session->fd, FrameType::kDone,
        EncodeDone(ErrorDone(ErrorCode::kOverloaded,
                             "tenant quota exhausted; retry later")));
    return;
  }

  SocketSink sink(session->fd, &metrics);
  request.sink = &sink;
  request.cancel = cancel;
  std::future<Result<QueryResponse>> future =
      engine_->Submit(std::move(request));

  // The query runs on a pool thread and streams ROWS frames from there;
  // this thread watches the socket so a CANCEL frame or a disconnect
  // trips the engine's cooperative cancellation mid-evaluation.
  bool watch_socket = true;
  while (future.wait_for(std::chrono::milliseconds(20)) !=
         std::future_status::ready) {
    if (!watch_socket || !WaitReadable(session->fd, 0)) continue;
    Result<Frame> frame = ReadFrame(session->fd);
    if (!frame.ok()) {
      cancel->store(true);
      session->peer_gone = true;
      watch_socket = false;
    } else if (frame.value().type == FrameType::kCancel) {
      cancel->store(true);
      watch_socket = false;  // at most one cancel matters
    } else {
      // Pipelining during a query is a protocol violation; treat it as
      // a disconnect so the stream stops cleanly.
      cancel->store(true);
      session->peer_gone = true;
      watch_socket = false;
    }
  }
  Result<QueryResponse> result = future.get();

  bool drain_cancelled;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    drain_cancelled = session->drain_cancelled;
    session->active_cancel.reset();
  }
  session->busy.store(false);
  if (session->peer_gone) return;

  DoneStatus status;
  bool release_heap = false;
  if (result.ok()) {
    const QueryResponse& response = result.value();
    release_heap = response.memory_peak_bytes >= kReleaseHeapAfterBytes;
    status.num_rows = response.num_rows;
    status.truncated = response.truncated;
    status.latency_us = static_cast<uint64_t>(response.latency.count());
    // Explain output (and any sink-less text) still travels as ROWS so
    // the client sees one uniform stream.
    if (!response.text.empty()) {
      (void)WriteFrame(session->fd, FrameType::kRows, response.text);
    }
  } else {
    ErrorCode code = result.error().code();
    if (drain_cancelled && code == ErrorCode::kCancelled) {
      // The drain, not the client, cancelled this query: report it as
      // shed-by-shutdown, the same status a query refused outright gets.
      code = ErrorCode::kUnavailable;
      metrics.server_drain_shed.Increment();
    }
    status = ErrorDone(code, result.error().message());
  }
  if (!WriteFrame(session->fd, FrameType::kDone, EncodeDone(status)).ok()) {
    session->peer_gone = true;
  }
  // After the DONE, so the release is not part of this query's latency.
  if (release_heap) ReleaseFreeHeap();
}

void GraphServer::HandleMutate(Session* session, const std::string& payload) {
  MetricsRegistry& metrics = engine_->metrics();
  metrics.server_mutations.Increment();
  PayloadReader reader(payload);
  uint32_t count = 0;
  reader.ReadU32(&count);
  MutationBatch batch;
  for (uint32_t i = 0; reader.ok() && i < count; ++i) {
    std::string line;
    if (!reader.ReadString(&line)) break;
    Result<MutationOp> op = ParseMutationOp(line);
    if (!op.ok()) {
      (void)WriteFrame(session->fd, FrameType::kDone,
                       EncodeDone(ErrorDone(op.error().code(),
                                            op.error().message())));
      return;
    }
    batch.ops.push_back(std::move(op).value());
  }
  if (!reader.ok()) {
    (void)WriteFrame(session->fd, FrameType::kDone,
                     EncodeDone(ErrorDone(ErrorCode::kInvalidArgument,
                                          "malformed MUTATE payload")));
    return;
  }

  session->busy.store(true);
  if (draining_.load()) {
    session->busy.store(false);
    metrics.server_drain_shed.Increment();
    (void)WriteFrame(session->fd, FrameType::kDone,
                     EncodeDone(ErrorDone(ErrorCode::kUnavailable,
                                          "server is draining")));
    return;
  }
  if (!quotas_.TryAcquire(session->tenant)) {
    session->busy.store(false);
    metrics.tenant_quota_shed.Increment();
    (void)WriteFrame(
        session->fd, FrameType::kDone,
        EncodeDone(ErrorDone(ErrorCode::kOverloaded,
                             "tenant quota exhausted; retry later")));
    return;
  }
  Result<QueryEngine::MutationResult> result = engine_->ApplyMutation(batch);
  session->busy.store(false);

  DoneStatus status;
  if (result.ok()) {
    // The DONE *is* the ack: once the client sees it, the write is in the
    // WAL (durably within the group-commit window — the drain flushes
    // that window before the process exits).
    status.num_rows = result.value().applied;
  } else {
    status = ErrorDone(result.error().code(), result.error().message());
  }
  (void)WriteFrame(session->fd, FrameType::kDone, EncodeDone(status));
}

std::string GraphServer::StatsReport() const {
  std::string out = engine_->StatsReport();
  std::map<std::string, TenantQuotas::TenantCounts> counts = quotas_.Counts();
  if (!counts.empty()) {
    out += "== tenants ==\n";
    char line[192];
    for (const auto& [tenant, c] : counts) {
      snprintf(line, sizeof(line), "%-24s admitted %10llu  shed %10llu\n",
               tenant.c_str(), static_cast<unsigned long long>(c.admitted),
               static_cast<unsigned long long>(c.shed));
      out += line;
    }
  }
  return out;
}

size_t GraphServer::Shutdown() {
  if (!started_.load()) return 0;
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (stopping_.load()) return 0;  // a previous drain already finished

  // Phase 1: stop accepting. The accept loop checks the flag every poll
  // tick, so the thread exits within ~200ms without a wake-up pipe.
  draining_.store(true);
  accept_thread_.join();
  close(listen_fd_);
  listen_fd_ = -1;

  // Phase 2: wait for in-flight requests, up to the drain deadline. New
  // requests arriving meanwhile are shed with kUnavailable by the
  // handlers' draining check.
  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_deadline;
  auto count_busy = [this] {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    size_t busy = 0;
    for (const auto& session : sessions_) {
      if (session->busy.load()) ++busy;
    }
    return busy;
  };
  while (count_busy() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Phase 3: shed stragglers. Cancelling through the external-cancel flag
  // trips the query at its next cooperative poll; its DONE reports
  // kUnavailable (drain_cancelled), never a hang.
  size_t sheds = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (!session->busy.load()) continue;
      std::lock_guard<std::mutex> session_lock(session->mu);
      if (session->active_cancel != nullptr) {
        session->drain_cancelled = true;
        session->active_cancel->store(true);
        ++sheds;
      }
    }
  }

  // Phase 4: stop connection threads. Idle sessions get their read side
  // shut down (instant EOF); busy ones keep the socket intact so their
  // DONE still reaches the client, and exit at the next poll tick.
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (!session->busy.load()) shutdown(session->fd, SHUT_RD);
    }
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (session->thread.joinable()) session->thread.join();
      close(session->fd);
      session->fd = -1;
    }
    sessions_.clear();
  }

  // Phase 5: make every acked write durable before the process exits.
  // Group commit lets a DONE precede its fsync by up to one window; this
  // closes that window.
  (void)engine_->FlushWal();
  engine_->metrics().server_connections.Set(0);
  return sheds;
}

}  // namespace server
}  // namespace gqzoo

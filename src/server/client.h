#ifndef GQZOO_SERVER_CLIENT_H_
#define GQZOO_SERVER_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/server/wire.h"
#include "src/util/result.h"

namespace gqzoo {
namespace server {

/// Per-query options mirrored onto the QUERY frame. Zero/empty fields
/// fall back to the session defaults established by HELLO.
struct ClientQueryOptions {
  std::string language;  // empty = session default
  uint32_t timeout_ms = 0;
  uint32_t max_display_rows = 0;
  bool explain = false;
  // kPaths only:
  std::string paths_from;
  std::string paths_to;
  uint8_t paths_mode = 0;  // 0 all, 1 shortest, 2 simple, 3 trail
  uint32_t k_shortest = 0;
};

/// A blocking client for the wire protocol: one connection, one request
/// at a time. Used by `gqzoo_batch --connect`, the server benchmark, and
/// the server tests. Move-only (owns the socket).
class Client {
 public:
  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to `host`:`port` (host is a dotted-quad or "localhost").
  static Result<Client> Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Establishes the session: tenant id, default language (empty keeps
  /// the server default), default per-query timeout.
  Result<bool> Hello(const std::string& tenant,
                     const std::string& default_language = "",
                     uint32_t default_timeout_ms = 0);

  /// Runs one query; `on_chunk` (may be null) receives each ROWS chunk as
  /// it arrives — the concatenation is byte-identical to the in-process
  /// response text. Returning false from `on_chunk` sends CANCEL and
  /// drains the stream. Server-side errors come back as the DoneStatus
  /// (ok == false), not as a Result error; Result errors mean the
  /// connection itself failed.
  Result<DoneStatus> Query(
      const std::string& text, const ClientQueryOptions& options = {},
      const std::function<bool(std::string_view)>& on_chunk = nullptr);

  /// Sends a QUERY frame without waiting for the response — the send half
  /// of `Query`, for callers that want to disconnect or cancel while the
  /// query runs (the server tests exercise exactly that).
  Result<bool> StartQuery(const std::string& text,
                          const ClientQueryOptions& options = {});

  /// Applies a batch of mutation lines (shell syntax). On success,
  /// `num_rows` carries the number of ops applied — and the DONE is the
  /// durability ack.
  Result<DoneStatus> Mutate(const std::vector<std::string>& ops);

  /// Fetches the server's stats report (engine metrics + tenant counts).
  Result<std::string> Stats();

  /// Sends a CANCEL frame without reading a response — for cancelling a
  /// query mid-stream from another thread.
  Result<bool> SendCancel();

 private:
  explicit Client(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace server
}  // namespace gqzoo

#endif  // GQZOO_SERVER_CLIENT_H_

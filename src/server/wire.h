#ifndef GQZOO_SERVER_WIRE_H_
#define GQZOO_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/result.h"

namespace gqzoo {
namespace server {

/// The wire protocol: length-prefixed frames over a byte stream.
///
///     frame   := u32 payload_len (LE) | u8 type | payload
///     str     := u32 len (LE) | bytes
///
/// `payload_len` counts the payload only (not the type byte), so an empty
/// frame is five bytes. All integers are little-endian. The protocol is
/// strictly request/response with at most one request outstanding per
/// connection; the single exception is CANCEL, which a client may send
/// while its QUERY is still streaming.
///
/// Requests (client -> server):
///   HELLO   str tenant | str default_language | u32 default_timeout_ms
///   QUERY   str language | str text | u32 timeout_ms | u32 max_display_rows
///           | u8 flags (bit0 explain; every other bit must be clear)
///           | str paths_from | str paths_to | u8 paths_mode | u32 k_shortest
///           (paths_mode: 0 all, 1 shortest, 2 simple, 3 trail)
///   MUTATE  u32 count | count x str op_line (shell mutation syntax)
///   CANCEL  (empty)
///   STATS   (empty)
///
/// Responses (server -> client):
///   HELLO_OK    str banner
///   ROWS        raw chunk bytes (concatenation of all ROWS frames for one
///               QUERY is byte-identical to the in-process response text)
///   DONE        u8 status (0 = OK, else ErrorCode+1) | str message
///               | u64 num_rows | u8 truncated | u64 latency_us
///   STATS_TEXT  raw report text
///
/// Every QUERY/MUTATE/STATS ends with exactly one DONE; HELLO is answered
/// by HELLO_OK (or DONE carrying an error).
enum class FrameType : uint8_t {
  kHello = 0x01,
  kQuery = 0x02,
  kMutate = 0x03,
  kCancel = 0x04,
  kStats = 0x05,
  kHelloOk = 0x81,
  kRows = 0x82,
  kDone = 0x83,
  kStatsText = 0x84,
};

/// The one QUERY flag bit. The server rejects a frame with any other bit
/// set, so a bit can later gain a meaning without old servers silently
/// ignoring it.
inline constexpr uint8_t kQueryFlagExplain = 0x01;

/// Upper bound on a single frame's payload — a sanity valve against a
/// corrupt or malicious length prefix, not a practical limit (row chunks
/// are ~4 KiB).
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

struct Frame {
  FrameType type = FrameType::kDone;
  std::string payload;
};

// --- payload encoding -----------------------------------------------------

void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendString(std::string* out, std::string_view s);

/// Cursor over a received payload. Every `Read*` returns false (and the
/// reader stays failed) on truncation, so decoders can chain reads and
/// check `ok()` once at the end.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadString(std::string* v);

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const char* Take(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- DONE payload ---------------------------------------------------------

/// The terminal status of one request, as carried by a DONE frame.
struct DoneStatus {
  bool ok = true;
  ErrorCode code = ErrorCode::kGeneric;  // meaningful when !ok
  std::string message;                   // error message; empty on success
  uint64_t num_rows = 0;
  bool truncated = false;
  uint64_t latency_us = 0;
};

std::string EncodeDone(const DoneStatus& status);
Result<DoneStatus> DecodeDone(std::string_view payload);

// --- socket IO ------------------------------------------------------------

/// Writes one frame, looping over partial sends. SIGPIPE is suppressed
/// (MSG_NOSIGNAL): a peer that vanished mid-write surfaces as an error
/// result, which the server turns into query cancellation.
Result<bool> WriteFrame(int fd, FrameType type, std::string_view payload);

/// Reads one frame, blocking until it is complete. A clean EOF before any
/// byte of the frame returns kUnavailable ("connection closed"); a torn
/// frame or oversized length prefix returns kGeneric.
Result<Frame> ReadFrame(int fd);

/// Polls `fd` for readability (or EOF) up to `timeout_ms`. False on
/// timeout — callers use short timeouts to interleave shutdown checks
/// with blocking reads.
bool WaitReadable(int fd, int timeout_ms);

}  // namespace server
}  // namespace gqzoo

#endif  // GQZOO_SERVER_WIRE_H_

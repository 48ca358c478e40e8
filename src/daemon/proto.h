// The privanalyzerd wire protocol: length-prefixed, versioned frames over a
// Unix-domain stream socket, carrying the one-shot CLI's exit-code and
// diagnostic contract on the wire.
//
// ## Framing
//
// Every message is one frame: a fixed 12-byte little-endian header
//
//   u32 magic    "PAD1" (0x31444150)
//   u16 version  kProtoVersion — the whole protocol is versioned, not
//                individual messages; a mismatch rejects the connection
//   u16 type     MsgType
//   u32 length   payload byte count, at most kMaxFrameBytes
//
// followed by `length` payload bytes. Any deviation — wrong magic, unknown
// version, oversized length, truncated payload — is a protocol error: the
// server answers with an Error frame when the socket still works, then
// reaps the connection; other connections are unaffected.
//
// ## Payload
//
// Payloads are ordered `key=value` lines. Values are percent-escaped
// ('%' -> %25, '\n' -> %0A, '\r' -> %0D) so program source text and
// rendered reports travel verbatim. Unknown keys are ignored (forward
// compatibility within a version).
//
// ## Conversation
//
// Requests are synchronous per connection: the client writes one request
// frame and reads until the matching reply type arrives. Event frames may
// interleave at any point (job progress, streamed diagnostics) and Result
// frames arrive unsolicited when a submitted job reaches a terminal state
// — client loops must tolerate both between request and reply.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/socket.h"

namespace pa::daemon {

inline constexpr std::uint32_t kMagic = 0x31444150;  // "PAD1" little-endian
inline constexpr std::uint16_t kProtoVersion = 1;
inline constexpr std::size_t kMaxFrameBytes = 4u << 20;

enum class MsgType : std::uint16_t {
  // client -> server
  Submit = 1,    // enqueue an analysis job
  Status = 2,    // poll one job's state, and a terminal job's result
  Cancel = 3,    // cooperative cancel of a queued/running job
  Ping = 4,      // heartbeat
  Shutdown = 5,  // drain (finish running jobs) or abort, then exit
  // server -> client
  SubmitOk = 64,    // job admitted; carries the job id
  Rejected = 65,    // admission control refused the job (e.g. backpressure)
  StatusReply = 66,
  Event = 67,       // streamed progress/diagnostic line for a job
  Result = 68,      // terminal state + the job's rendered result
  Pong = 69,
  ErrorMsg = 70,    // structured protocol/server error
  Draining = 71,    // shutdown acknowledged; no further submits accepted
};

std::string_view msg_type_name(MsgType t);

struct Frame {
  MsgType type{};
  std::string payload;
};

/// Write one frame. Propagates socket errors (Stage::Daemon StageError).
void write_frame(support::Socket& s, const Frame& f);

/// Read one frame. nullopt on clean EOF before a header byte; throws a
/// Stage::Daemon StageError on malformed framing, timeouts, or I/O errors.
std::optional<Frame> read_frame(support::Socket& s, int timeout_ms = -1,
                                std::size_t max_payload = kMaxFrameBytes);

// --- payload key=value helpers ---------------------------------------------

using KvPairs = std::vector<std::pair<std::string, std::string>>;

std::string encode_kv(const KvPairs& kv);
/// Throws a Stage::Daemon StageError on a line without '='.
KvPairs decode_kv(std::string_view payload);
/// First value for `key`; `fallback` when absent.
std::string kv_get(const KvPairs& kv, std::string_view key,
                   std::string_view fallback = "");
/// `key` as a count (str::parse_u64: digits only, at most `max`);
/// `fallback` when absent or empty, a ProtocolError when malformed.
std::uint64_t kv_get_u64(
    const KvPairs& kv, std::string_view key, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
/// `key` as a duration (str::parse_seconds: finite, >= 0); `fallback` when
/// absent or empty, a ProtocolError when malformed.
double kv_get_seconds(const KvPairs& kv, std::string_view key,
                      double fallback);

// --- messages ---------------------------------------------------------------

/// One analysis job, mirroring the one-shot CLI's knobs so a daemon job and
/// a CLI run of the same inputs are the same pipeline invocation.
struct JobRequest {
  /// "pir" (PrivIR text in `source`), "pc" (PrivC text), or "builtin"
  /// (`source` names a Table-II model: passwd, su, ping, thttpd, sshd, ...).
  std::string kind = "pir";
  std::string source;
  std::string name;  // display name; loader defaults apply when empty

  std::uint64_t max_states = 2'000'000;
  std::uint64_t max_bytes = 0;
  double deadline_secs = 0.0;  // per-job wall budget (0 = server default)
  bool run_rosa = true;
  bool use_cache = true;  // consult the daemon's resident verdict cache
  /// EpochFilter mode: "off" | "report" | "enforce" (filter_mode_name
  /// spelling; unknown values are a job-level usage error, not a protocol
  /// error). Enforced jobs use the default -EPERM violation semantics.
  std::string filters = "off";

  Frame to_frame() const;
  static JobRequest from_frame(const Frame& f);
};

struct SubmitReply {
  bool accepted = false;
  std::uint64_t job_id = 0;
  std::string reason;  // Rejected: "backpressure", "draining", ...

  Frame to_frame() const;
  static SubmitReply from_frame(const Frame& f);
};

struct StatusReply {
  std::uint64_t job_id = 0;
  std::string state;  // job_state_name spelling, "unknown" for bad ids
  /// A terminal job's exit code and result body, as its Result frame
  /// carries them; unset, and left off the wire, for any other state.
  std::optional<int> exit_code;
  std::string body;

  Frame to_frame() const;
  static StatusReply from_frame(const Frame& f);
};

struct EventMsg {
  std::uint64_t job_id = 0;
  std::string kind;  // "state" | "diagnostic"
  std::string text;

  Frame to_frame() const;
  static EventMsg from_frame(const Frame& f);
};

struct ResultMsg {
  std::uint64_t job_id = 0;
  std::string state;  // terminal job_state_name
  int exit_code = 0;  // the one-shot CLI contract (0/1/...)
  std::string body;   // daemon::render_job_result text

  Frame to_frame() const;
  static ResultMsg from_frame(const Frame& f);
};

}  // namespace pa::daemon

#include "daemon/proto.h"

#include <algorithm>
#include <climits>
#include <cstring>
#include <stdexcept>

#include "support/diagnostics.h"
#include "support/str.h"

namespace pa::daemon {
namespace {

using support::DiagCode;
using support::fail_stage;
using support::Stage;

[[noreturn]] void proto_fail(const std::string& what) {
  fail_stage(Stage::Daemon, DiagCode::ProtocolError, "", what);
}

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Append `v` to `out` percent-escaped, copying the runs between escapes
/// whole.
void append_escaped(std::string& out, std::string_view v) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::string_view escape;
    switch (v[i]) {
      case '%': escape = "%25"; break;
      case '\n': escape = "%0A"; break;
      case '\r': escape = "%0D"; break;
      default: continue;
    }
    out.append(v.data() + run, i - run);
    out += escape;
    run = i + 1;
  }
  out.append(v.data() + run, v.size() - run);
}

std::string unescape_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (std::size_t pct = v.find('%'); pct != std::string_view::npos;
       pct = v.find('%')) {
    out += v.substr(0, pct);
    if (pct + 2 >= v.size()) proto_fail("truncated %-escape in payload value");
    const std::string_view hex = v.substr(pct + 1, 2);
    if (hex == "25") out.push_back('%');
    else if (hex == "0A") out.push_back('\n');
    else if (hex == "0D") out.push_back('\r');
    else proto_fail(str::cat("unknown %-escape '%", hex,
                             "' in payload value"));
    v.remove_prefix(pct + 3);
  }
  out += v;
  return out;
}

bool kv_get_bool(const KvPairs& kv, std::string_view key, bool fallback) {
  std::string v = kv_get(kv, key, fallback ? "1" : "0");
  return v != "0" && v != "false";
}

}  // namespace

std::string_view msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::Submit: return "submit";
    case MsgType::Status: return "status";
    case MsgType::Cancel: return "cancel";
    case MsgType::Ping: return "ping";
    case MsgType::Shutdown: return "shutdown";
    case MsgType::SubmitOk: return "submit-ok";
    case MsgType::Rejected: return "rejected";
    case MsgType::StatusReply: return "status-reply";
    case MsgType::Event: return "event";
    case MsgType::Result: return "result";
    case MsgType::Pong: return "pong";
    case MsgType::ErrorMsg: return "error";
    case MsgType::Draining: return "draining";
  }
  return "unknown";
}

void write_frame(support::Socket& s, const Frame& f) {
  if (f.payload.size() > kMaxFrameBytes)
    proto_fail(str::cat("refusing to send oversized frame (", f.payload.size(),
                        " bytes, limit ", kMaxFrameBytes, ")"));
  std::string wire;
  wire.reserve(12 + f.payload.size());
  put_u32(wire, kMagic);
  put_u16(wire, kProtoVersion);
  put_u16(wire, static_cast<std::uint16_t>(f.type));
  put_u32(wire, static_cast<std::uint32_t>(f.payload.size()));
  wire += f.payload;
  s.write_all(wire.data(), wire.size());
}

std::optional<Frame> read_frame(support::Socket& s, int timeout_ms,
                                std::size_t max_payload) {
  unsigned char hdr[12];
  if (!s.read_exact(hdr, sizeof hdr, timeout_ms)) return std::nullopt;
  if (get_u32(hdr) != kMagic)
    proto_fail("bad frame magic (peer is not speaking the PAD1 protocol)");
  std::uint16_t version = get_u16(hdr + 4);
  if (version != kProtoVersion)
    proto_fail(str::cat("unsupported protocol version ", version,
                        " (this build speaks ", kProtoVersion, ")"));
  std::uint32_t len = get_u32(hdr + 8);
  if (len > max_payload)
    proto_fail(str::cat("oversized frame payload (", len, " bytes, limit ",
                        max_payload, ")"));
  Frame f;
  f.type = static_cast<MsgType>(get_u16(hdr + 6));
  f.payload.resize(len);
  if (len != 0 && !s.read_exact(f.payload.data(), len, timeout_ms))
    proto_fail("peer closed mid-frame (truncated payload)");
  return f;
}

std::string encode_kv(const KvPairs& kv) {
  std::string out;
  for (const auto& [k, v] : kv) {
    out += k;
    out.push_back('=');
    append_escaped(out, v);
    out.push_back('\n');
  }
  return out;
}

KvPairs decode_kv(std::string_view payload) {
  KvPairs out;
  while (!payload.empty()) {
    const std::size_t end = std::min(payload.find('\n'), payload.size());
    const std::string_view line = payload.substr(0, end);
    payload.remove_prefix(std::min(end + 1, payload.size()));
    if (line.empty()) continue;  // blank lines carry nothing
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      proto_fail(str::cat("payload line without '=': '", line, "'"));
    out.emplace_back(line.substr(0, eq), unescape_value(line.substr(eq + 1)));
  }
  return out;
}

std::string kv_get(const KvPairs& kv, std::string_view key,
                   std::string_view fallback) {
  for (const auto& [k, v] : kv)
    if (k == key) return v;
  return std::string(fallback);
}

std::uint64_t kv_get_u64(const KvPairs& kv, std::string_view key,
                         std::uint64_t fallback, std::uint64_t max) {
  const std::string v = kv_get(kv, key);
  if (v.empty()) return fallback;
  const std::optional<std::uint64_t> n = str::parse_u64(v, max);
  if (!n) proto_fail(str::cat("bad integer for key '", key, "': '", v, "'"));
  return *n;
}

double kv_get_seconds(const KvPairs& kv, std::string_view key,
                      double fallback) {
  const std::string v = kv_get(kv, key);
  if (v.empty()) return fallback;
  const std::optional<double> secs = str::parse_seconds(v);
  if (!secs)
    proto_fail(str::cat("bad duration for key '", key, "': '", v, "'"));
  return *secs;
}

Frame JobRequest::to_frame() const {
  KvPairs kv = {
      {"kind", kind},
      {"source", source},
      {"name", name},
      {"max_states", std::to_string(max_states)},
      {"max_bytes", std::to_string(max_bytes)},
      {"deadline_secs", str::fixed(deadline_secs, 3)},
      {"run_rosa", run_rosa ? "1" : "0"},
      {"use_cache", use_cache ? "1" : "0"},
      {"filters", filters},
  };
  return Frame{MsgType::Submit, encode_kv(kv)};
}

JobRequest JobRequest::from_frame(const Frame& f) {
  KvPairs kv = decode_kv(f.payload);
  JobRequest r;
  r.kind = kv_get(kv, "kind", r.kind);
  r.source = kv_get(kv, "source");
  r.name = kv_get(kv, "name");
  r.max_states = kv_get_u64(kv, "max_states", r.max_states);
  r.max_bytes = kv_get_u64(kv, "max_bytes", r.max_bytes);
  r.deadline_secs = kv_get_seconds(kv, "deadline_secs", r.deadline_secs);
  r.run_rosa = kv_get_bool(kv, "run_rosa", r.run_rosa);
  r.use_cache = kv_get_bool(kv, "use_cache", r.use_cache);
  r.filters = kv_get(kv, "filters", r.filters);
  return r;
}

Frame SubmitReply::to_frame() const {
  KvPairs kv = {
      {"job_id", std::to_string(job_id)},
      {"reason", reason},
  };
  return Frame{accepted ? MsgType::SubmitOk : MsgType::Rejected,
               encode_kv(kv)};
}

SubmitReply SubmitReply::from_frame(const Frame& f) {
  KvPairs kv = decode_kv(f.payload);
  SubmitReply r;
  r.accepted = f.type == MsgType::SubmitOk;
  r.job_id = kv_get_u64(kv, "job_id", 0);
  r.reason = kv_get(kv, "reason");
  return r;
}

Frame StatusReply::to_frame() const {
  KvPairs kv = {
      {"job_id", std::to_string(job_id)},
      {"state", state},
  };
  if (exit_code) {
    kv.emplace_back("exit_code", std::to_string(*exit_code));
    kv.emplace_back("body", body);
  }
  return Frame{MsgType::StatusReply, encode_kv(kv)};
}

StatusReply StatusReply::from_frame(const Frame& f) {
  KvPairs kv = decode_kv(f.payload);
  StatusReply r;
  r.job_id = kv_get_u64(kv, "job_id", 0);
  r.state = kv_get(kv, "state", "unknown");
  if (!kv_get(kv, "exit_code").empty()) {
    r.exit_code = static_cast<int>(kv_get_u64(kv, "exit_code", 0, INT_MAX));
    r.body = kv_get(kv, "body");
  }
  return r;
}

Frame EventMsg::to_frame() const {
  KvPairs kv = {
      {"job_id", std::to_string(job_id)},
      {"kind", kind},
      {"text", text},
  };
  return Frame{MsgType::Event, encode_kv(kv)};
}

EventMsg EventMsg::from_frame(const Frame& f) {
  KvPairs kv = decode_kv(f.payload);
  EventMsg e;
  e.job_id = kv_get_u64(kv, "job_id", 0);
  e.kind = kv_get(kv, "kind");
  e.text = kv_get(kv, "text");
  return e;
}

Frame ResultMsg::to_frame() const {
  KvPairs kv = {
      {"job_id", std::to_string(job_id)},
      {"state", state},
      {"exit_code", std::to_string(exit_code)},
      {"body", body},
  };
  return Frame{MsgType::Result, encode_kv(kv)};
}

ResultMsg ResultMsg::from_frame(const Frame& f) {
  KvPairs kv = decode_kv(f.payload);
  ResultMsg r;
  r.job_id = kv_get_u64(kv, "job_id", 0);
  r.state = kv_get(kv, "state", "unknown");
  r.exit_code = static_cast<int>(kv_get_u64(kv, "exit_code", 0, INT_MAX));
  r.body = kv_get(kv, "body");
  return r;
}

}  // namespace pa::daemon

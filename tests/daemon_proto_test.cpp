// Wire-protocol tests for privanalyzerd (daemon/proto.h): key=value payload
// escaping, frame round trips over a real socketpair, and the protocol-error
// hygiene read_frame must enforce (bad magic, bad version, oversized frame,
// truncated payload, clean EOF).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "daemon/job.h"
#include "daemon/proto.h"
#include "support/diagnostics.h"
#include "support/socket.h"

namespace pa::daemon {
namespace {

using support::DiagCode;
using support::Socket;
using support::StageError;

/// A connected AF_UNIX socket pair for loopback frame tests.
std::pair<Socket, Socket> make_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

void expect_protocol_error(const StageError& e) {
  EXPECT_EQ(e.diagnostic().stage, support::Stage::Daemon);
  EXPECT_EQ(e.diagnostic().code, DiagCode::ProtocolError);
}

TEST(KvTest, RoundTripsEveryValueShape) {
  KvPairs kv = {
      {"plain", "hello"},
      {"empty", ""},
      {"newlines", "line1\nline2\r\nline3"},
      {"percent", "100% of %0A literals"},
      {"equals", "a=b=c"},
      {"source", "; !name: demo\nfunc @main(0) {\nentry:\n  ret %0\n}\n"},
  };
  KvPairs back = decode_kv(encode_kv(kv));
  ASSERT_EQ(back.size(), kv.size());
  for (std::size_t i = 0; i < kv.size(); ++i) {
    EXPECT_EQ(back[i].first, kv[i].first);
    EXPECT_EQ(back[i].second, kv[i].second);
  }
}

TEST(KvTest, EncodesExactlyTheDocumentedEscapes) {
  // The wire bytes, not only the round trip: a decoder passes a raw '\r'
  // through, so an unescaped one would still round-trip.
  EXPECT_EQ(encode_kv({{"k", "100%\r\nx"}, {"empty", ""}, {"eq", "a=b"}}),
            "k=100%25%0D%0Ax\nempty=\neq=a=b\n");
  EXPECT_EQ(encode_kv({{"v", "%abc%"}, {"w", "\n"}, {"r", "\r"}}),
            "v=%25abc%25\nw=%0A\nr=%0D\n");
}

TEST(KvTest, GetFallsBackAndParses) {
  KvPairs kv = decode_kv("a=1\nb=text\n");
  EXPECT_EQ(kv_get(kv, "a"), "1");
  EXPECT_EQ(kv_get(kv, "missing", "dflt"), "dflt");
  EXPECT_EQ(kv_get_u64(kv, "a", 9), 1u);
  EXPECT_EQ(kv_get_u64(kv, "missing", 9), 9u);
  EXPECT_THROW(kv_get_u64(kv, "b", 0), StageError);
}

TEST(KvTest, RejectsMalformedLinesAndEscapes) {
  EXPECT_THROW(decode_kv("no-equals-sign\n"), StageError);
  EXPECT_THROW(decode_kv("k=%zz\n"), StageError);
  EXPECT_THROW(decode_kv("k=trailing%2\n"), StageError);
  try {
    decode_kv("bad line\n");
    FAIL() << "malformed payload did not throw";
  } catch (const StageError& e) {
    expect_protocol_error(e);
  }
}

TEST(FrameTest, RoundTripsOverASocketpair) {
  auto [a, b] = make_pair();
  Frame sent{MsgType::Submit, encode_kv({{"kind", "pir"}, {"source", "x\ny"}})};
  write_frame(a, sent);
  std::optional<Frame> got = read_frame(b, 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MsgType::Submit);
  EXPECT_EQ(got->payload, sent.payload);
}

TEST(FrameTest, CleanEofBetweenFramesIsNullopt) {
  auto [a, b] = make_pair();
  a.close();
  EXPECT_FALSE(read_frame(b, 1000).has_value());
}

TEST(FrameTest, BadMagicIsAProtocolError) {
  auto [a, b] = make_pair();
  const char junk[12] = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T', 'P',
                         '/', '1'};
  a.write_all(junk, sizeof junk);
  try {
    read_frame(b, 1000);
    FAIL() << "bad magic did not throw";
  } catch (const StageError& e) {
    expect_protocol_error(e);
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(FrameTest, BadVersionIsAProtocolError) {
  auto [a, b] = make_pair();
  // Valid magic, version 99.
  unsigned char hdr[12] = {0x50, 0x41, 0x44, 0x31, 99, 0,
                           1,    0,    0,    0,    0,  0};
  a.write_all(hdr, sizeof hdr);
  try {
    read_frame(b, 1000);
    FAIL() << "bad version did not throw";
  } catch (const StageError& e) {
    expect_protocol_error(e);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(FrameTest, OversizedFrameIsAProtocolError) {
  auto [a, b] = make_pair();
  // Valid header claiming a payload far past kMaxFrameBytes.
  unsigned char hdr[12] = {0x50, 0x41, 0x44, 0x31, 1,    0,
                           1,    0,    0xff, 0xff, 0xff, 0x7f};
  a.write_all(hdr, sizeof hdr);
  try {
    read_frame(b, 1000);
    FAIL() << "oversized frame did not throw";
  } catch (const StageError& e) {
    expect_protocol_error(e);
    EXPECT_NE(std::string(e.what()).find("oversized"), std::string::npos);
  }
  // The sending side refuses to build one in the first place.
  Frame huge{MsgType::Submit, std::string(kMaxFrameBytes + 1, 'x')};
  EXPECT_THROW(write_frame(a, huge), StageError);
}

TEST(FrameTest, TruncatedPayloadIsAProtocolError) {
  auto [a, b] = make_pair();
  // Header promises 64 payload bytes; peer half-closes after 3.
  unsigned char hdr[12] = {0x50, 0x41, 0x44, 0x31, 1, 0, 1, 0, 64, 0, 0, 0};
  a.write_all(hdr, sizeof hdr);
  a.write_all("abc", 3);
  a.close();
  EXPECT_THROW(read_frame(b, 1000), StageError);
}

TEST(FrameTest, MidHeaderEofIsAProtocolError) {
  auto [a, b] = make_pair();
  a.write_all("PAD", 3);  // 3 of 12 header bytes, then half-close
  a.close();
  EXPECT_THROW(read_frame(b, 1000), StageError);
}

TEST(MessageTest, JobRequestRoundTripsEveryField) {
  JobRequest req;
  req.kind = "pc";
  req.source = "int main() { return 0; }\n// 100%\n";
  req.name = "demo";
  req.max_states = 123'456;
  req.max_bytes = 789;
  req.escalate_rounds = 4;
  req.deadline_secs = 1.5;
  req.run_rosa = false;
  req.use_cache = false;
  req.filters = "enforce";

  JobRequest back = JobRequest::from_frame(req.to_frame());
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.source, req.source);
  EXPECT_EQ(back.name, req.name);
  EXPECT_EQ(back.max_states, req.max_states);
  EXPECT_EQ(back.max_bytes, req.max_bytes);
  EXPECT_EQ(back.escalate_rounds, req.escalate_rounds);
  EXPECT_DOUBLE_EQ(back.deadline_secs, req.deadline_secs);
  EXPECT_EQ(back.run_rosa, req.run_rosa);
  EXPECT_EQ(back.use_cache, req.use_cache);
  EXPECT_EQ(back.filters, req.filters);
}

TEST(MessageTest, FiltersKeyDefaultsToOffWhenAbsent) {
  // Pre-filter clients omit the key; the daemon must treat that as "off".
  Frame f{MsgType::Submit,
          encode_kv({{"kind", "builtin"}, {"source", "ping"}})};
  EXPECT_EQ(JobRequest::from_frame(f).filters, "off");
}

TEST(MessageTest, RetiredEngineKeysDecodeToTheDefaultRequest) {
  // Older clients still send the keys of the deleted intra-search,
  // fused-search and ROSA worker-count switches; the daemon must ignore
  // them, not reject the job.
  Frame f{MsgType::Submit,
          encode_kv({{"kind", "builtin"}, {"source", "ping"},
                     {"search_threads", "4"}, {"fused", "0"},
                     {"rosa_threads", "4"}})};
  JobRequest defaults;
  defaults.kind = "builtin";
  defaults.source = "ping";
  EXPECT_EQ(JobRequest::from_frame(f).to_frame().payload,
            defaults.to_frame().payload);
}

TEST(MessageTest, RetiredReductionKeyDecodesToTheDefaultRequest) {
  // Clients from before symmetry reduction was retired still send its
  // switch; either value decodes like a frame without the key.
  JobRequest defaults;
  defaults.kind = "builtin";
  defaults.source = "ping";
  for (const char* value : {"0", "1"}) {
    SCOPED_TRACE(value);
    Frame f{MsgType::Submit,
            encode_kv({{"kind", "builtin"}, {"source", "ping"},
                       {"reduction", value}})};
    EXPECT_EQ(JobRequest::from_frame(f).to_frame().payload,
              defaults.to_frame().payload);
  }
}

TEST(MessageTest, MalformedNumbersAreProtocolErrors) {
  // Signs, trailing text, overflow and non-finite durations never decode:
  // -1 would wrap to 2^64-1, 12abc would truncate to 12, and an infinite
  // deadline would overflow the pipeline's clock arithmetic.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"max_states", "-1"},          {"max_states", "12abc"},
      {"max_bytes", "1e6"},          {"escalate_rounds", "4294967296"},
      {"escalate_rounds", "+2"},     {"deadline_secs", "inf"},
      {"deadline_secs", "-1"},       {"deadline_secs", "12abc"},
      {"deadline_secs", "nan"},
  };
  for (const auto& [key, value] : bad) {
    SCOPED_TRACE(key + "=" + value);
    Frame f{MsgType::Submit,
            encode_kv({{"kind", "builtin"}, {"source", "ping"}, {key, value}})};
    try {
      JobRequest::from_frame(f);
      ADD_FAILURE() << "malformed number decoded";
    } catch (const StageError& e) {
      expect_protocol_error(e);
    }
  }
}

TEST(MessageTest, RepliesRoundTrip) {
  SubmitReply ok{true, 42, ""};
  SubmitReply ok2 = SubmitReply::from_frame(ok.to_frame());
  EXPECT_TRUE(ok2.accepted);
  EXPECT_EQ(ok2.job_id, 42u);

  SubmitReply rej{false, 0, "backpressure"};
  SubmitReply rej2 = SubmitReply::from_frame(rej.to_frame());
  EXPECT_FALSE(rej2.accepted);
  EXPECT_EQ(rej2.reason, "backpressure");

  ResultMsg res{7, "done", 0, "program x\nstatus ok exit 0\n"};
  ResultMsg res2 = ResultMsg::from_frame(res.to_frame());
  EXPECT_EQ(res2.job_id, 7u);
  EXPECT_EQ(res2.state, "done");
  EXPECT_EQ(res2.exit_code, 0);
  EXPECT_EQ(res2.body, res.body);

  EventMsg ev{7, "state", "running"};
  EventMsg ev2 = EventMsg::from_frame(ev.to_frame());
  EXPECT_EQ(ev2.job_id, 7u);
  EXPECT_EQ(ev2.kind, "state");
  EXPECT_EQ(ev2.text, "running");
}

TEST(MessageTest, StatusReplyCarriesATerminalJobsResult) {
  // A job still queued or running: no exit code or body on the wire.
  const StatusReply running{9, "running"};
  const Frame f = running.to_frame();
  EXPECT_EQ(f.payload.find("exit_code"), std::string::npos) << f.payload;
  EXPECT_EQ(f.payload.find("body"), std::string::npos) << f.payload;
  const StatusReply running2 = StatusReply::from_frame(f);
  EXPECT_EQ(running2.job_id, 9u);
  EXPECT_EQ(running2.state, "running");
  EXPECT_FALSE(running2.exit_code.has_value());
  EXPECT_EQ(running2.body, "");

  // A terminal job: both, like its Result frame.
  StatusReply failed{9, "failed"};
  failed.exit_code = privanalyzer::kExitAllFailed;
  failed.body = "program x\nstatus failed exit 1\n";
  const StatusReply failed2 = StatusReply::from_frame(failed.to_frame());
  EXPECT_EQ(failed2.state, "failed");
  EXPECT_EQ(failed2.exit_code, privanalyzer::kExitAllFailed);
  EXPECT_EQ(failed2.body, failed.body);

  // A reply from a build without the keys decodes as one without a result.
  const StatusReply old = StatusReply::from_frame(
      Frame{MsgType::StatusReply, encode_kv({{"job_id", "3"},
                                             {"state", "done"}})});
  EXPECT_EQ(old.state, "done");
  EXPECT_FALSE(old.exit_code.has_value());
}

TEST(JobStateTest, NamesAndTerminality) {
  EXPECT_EQ(job_state_name(JobState::Done), "done");
  EXPECT_EQ(job_state_name(JobState::Rejected), "rejected");
  EXPECT_FALSE(is_terminal(JobState::Queued));
  EXPECT_FALSE(is_terminal(JobState::Running));
  for (JobState s : {JobState::Done, JobState::Failed, JobState::Cancelled,
                     JobState::Timeout, JobState::Rejected})
    EXPECT_TRUE(is_terminal(s)) << job_state_name(s);
}

// A job whose cancel flag is up when its analysis ends reports Cancelled
// with the all-failed exit code, as a job cancelled while queued does, even
// though the analysis itself completed.
TEST(RunJobTest, CancelledJobExitsAllFailed) {
  JobRequest req;
  req.kind = "builtin";
  req.source = "passwd";
  const std::atomic<bool> cancel{true};
  const JobOutcome out = run_job(req, nullptr, &cancel, 0.0);
  EXPECT_EQ(out.state, JobState::Cancelled);
  EXPECT_EQ(out.exit_code, privanalyzer::kExitAllFailed);
}

// Cancel reaches a job that is still interpreting: ChronoPriv checks the
// flag between turns, so a pre-cancelled job of 1.5e7 instructions stops
// in its first turn and reports no epochs.
TEST(RunJobTest, CancelStopsAJobThatIsStillInterpreting) {
  JobRequest req;
  req.kind = "pir";
  req.source =
      "; !name: counter\n"
      "func @main(0) {\n"
      "entry:\n"
      "  %0 = mov 0\n"
      "  br loop\n"
      "loop:\n"
      "  %0 = add %0, 1\n"
      "  %1 = cmplt %0, 5000000\n"
      "  condbr %1, loop, done\n"
      "done:\n"
      "  ret 0\n"
      "}\n";
  const std::atomic<bool> cancel{true};
  const JobOutcome out = run_job(req, nullptr, &cancel, 0.0);
  EXPECT_EQ(out.state, JobState::Cancelled);
  EXPECT_EQ(out.exit_code, privanalyzer::kExitAllFailed);
  EXPECT_EQ(out.body.find("epoch "), std::string::npos) << out.body;
}

TEST(ResolveProgramTest, UnnamedPirJobWithoutNameDirectiveIsNamedJob) {
  // The loader reads the default name while it parses, so the default must
  // outlive the call; under ASan a dangling one aborts here.
  JobRequest req;
  req.kind = "pir";
  req.source =
      "; !permitted: CapSetuid\nfunc @main(0) {\nentry:\n  ret 0\n}\n";
  EXPECT_EQ(resolve_program(req).name, "job");
}

TEST(UnknownKeyTest, ForwardCompatibleWithinAVersion) {
  // A newer client may send keys this build does not know; they are ignored
  // rather than rejected (the version field gates incompatible changes).
  Frame f{MsgType::Submit,
          encode_kv({{"kind", "builtin"}, {"source", "ping"},
                     {"from_the_future", "yes"}})};
  JobRequest req = JobRequest::from_frame(f);
  EXPECT_EQ(req.kind, "builtin");
  EXPECT_EQ(req.source, "ping");
}

}  // namespace
}  // namespace pa::daemon

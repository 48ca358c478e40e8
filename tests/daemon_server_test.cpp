// Integration tests for privanalyzerd (daemon/server.h): the differential
// contract (a daemon job renders bit-identical to the one-shot pipeline,
// cold, warm, and with the cache bypassed), admission control, cancellation,
// drain shutdown, protocol-error hygiene, idle reaping, and warm restart
// from the persistent cache file.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "daemon/client.h"
#include "daemon/job.h"
#include "daemon/server.h"
#include "privanalyzer/pipeline.h"
#include "support/diagnostics.h"

namespace pa::daemon {
namespace {

using support::StageError;

const char* kPirProgram = R"(
; !name: daemondemo
; !permitted: CapSetuid
; !args: 3, 4
func @main(2) {
entry:
  %2 = add %0, %1
  ret %2
}
)";

/// A job that spins until its 2e9-instruction budget runs out, tens of
/// seconds: it holds a worker until it is cancelled.
const char* kSpinProgram = R"(
; !name: spin
func @main(0) {
entry:
  br loop
loop:
  br loop
}
)";

class DaemonServerTest : public ::testing::Test {
 protected:
  std::string sock_path(const std::string& tag) {
    std::string p = ::testing::TempDir() + "/pad_" + tag + ".sock";
    std::remove(p.c_str());
    return p;
  }

  void start(ServerOptions opts) {
    server_ = std::make_unique<Server>(std::move(opts));
    runner_ = std::thread([this] { server_->run(); });
  }

  /// Drain-stop the server and wait for run() to return.
  void stop(bool abort = false) {
    if (server_) server_->request_shutdown(abort);
    if (runner_.joinable()) runner_.join();
  }

  void TearDown() override {
    stop(true);
    server_.reset();
  }

  /// The one-shot pipeline run a JobRequest is defined to be equivalent to:
  /// the same program resolution and the same option mapping, with a private
  /// cache standing in for the daemon's resident one.
  static std::string one_shot_body(const JobRequest& req,
                                   double default_deadline_secs) {
    privanalyzer::PipelineOptions opts = make_pipeline_options(
        req, std::make_shared<rosa::QueryCache>(), nullptr,
        default_deadline_secs);
    privanalyzer::ProgramAnalysis a =
        privanalyzer::try_analyze_program(resolve_program(req), opts);
    EXPECT_EQ(a.status, privanalyzer::AnalysisStatus::Ok);
    return render_job_result(a);
  }

  /// Submit a spinning job and poll until a worker is running it, so that
  /// with one worker every job submitted afterwards stays queued until the
  /// spinning job is cancelled. Returns its id.
  static std::uint64_t hold_worker(Client& client) {
    JobRequest spin;
    spin.kind = "pir";
    spin.source = kSpinProgram;
    const SubmitReply s = client.submit(spin);
    EXPECT_TRUE(s.accepted) << s.reason;
    for (int i = 0; i < 10'000; ++i) {
      if (client.status(s.job_id).state == "running") return s.job_id;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "the spinning job never started";
    return s.job_id;
  }

  std::unique_ptr<Server> server_;
  std::thread runner_;
};

TEST_F(DaemonServerTest, BuiltinJobMatchesOneShotColdWarmAndUncached) {
  ServerOptions opts;
  opts.socket_path = sock_path("diff");
  start(opts);

  JobRequest req;
  req.kind = "builtin";
  req.source = "ping";
  req.name = "ping";
  const std::string want = one_shot_body(req, opts.default_deadline_secs);

  Client client(server_->socket_path());
  int events = 0;
  client.on_event([&](const EventMsg&) { ++events; });

  // Cold: the resident cache has never seen this program.
  SubmitReply s1 = client.submit(req);
  ASSERT_TRUE(s1.accepted) << s1.reason;
  ResultMsg r1 = client.wait_result(s1.job_id);
  EXPECT_EQ(r1.state, "done");
  EXPECT_EQ(r1.exit_code, privanalyzer::kExitOk);
  EXPECT_EQ(r1.body, want);
  EXPECT_GE(events, 2);  // at least the queued and running transitions

  // Warm: the same queries now hit the resident cache.
  SubmitReply s2 = client.submit(req);
  ASSERT_TRUE(s2.accepted);
  EXPECT_EQ(client.wait_result(s2.job_id).body, want);

  // Bypassed: --no-cache recomputes everything.
  JobRequest uncached = req;
  uncached.use_cache = false;
  SubmitReply s3 = client.submit(uncached);
  ASSERT_TRUE(s3.accepted);
  EXPECT_EQ(client.wait_result(s3.job_id).body, want);

  // The global job table answers Status polls after the fact.
  EXPECT_EQ(client.status(s1.job_id).state, "done");
  EXPECT_EQ(client.status(999'999).state, "unknown");

  stop();
  Server::Counters counters = server_->counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.completed, 3u);
  EXPECT_EQ(counters.rejected, 0u);
}

TEST_F(DaemonServerTest, PirSourceJobMatchesOneShot) {
  ServerOptions opts;
  opts.socket_path = sock_path("pir");
  start(opts);

  JobRequest req;
  req.kind = "pir";
  req.source = kPirProgram;  // multiline source exercises the %-escaping
  req.name = "daemondemo";
  const std::string want = one_shot_body(req, opts.default_deadline_secs);

  Client client(server_->socket_path());
  SubmitReply s = client.submit(req);
  ASSERT_TRUE(s.accepted) << s.reason;
  ResultMsg r = client.wait_result(s.job_id);
  EXPECT_EQ(r.state, "done");
  EXPECT_EQ(r.body, want);
}

TEST_F(DaemonServerTest, BadJobsFailWithoutHurtingTheServer) {
  ServerOptions opts;
  opts.socket_path = sock_path("badjob");
  start(opts);
  Client client(server_->socket_path());

  JobRequest garbage;
  garbage.kind = "pir";
  garbage.source = "this is not PrivIR at all\n";
  garbage.name = "garbage";
  SubmitReply s1 = client.submit(garbage);
  ASSERT_TRUE(s1.accepted);
  ResultMsg r1 = client.wait_result(s1.job_id);
  EXPECT_EQ(r1.state, "failed");
  EXPECT_EQ(r1.exit_code, privanalyzer::kExitAllFailed);
  EXPECT_NE(r1.body.find("status failed"), std::string::npos);

  JobRequest unknown;
  unknown.kind = "builtin";
  unknown.source = "no-such-table-ii-program";
  SubmitReply s2 = client.submit(unknown);
  ASSERT_TRUE(s2.accepted);
  EXPECT_EQ(client.wait_result(s2.job_id).state, "failed");

  // A program whose arithmetic faults at runtime: INT64_MIN / -1.
  JobRequest overflow;
  overflow.kind = "pir";
  overflow.source =
      "func @main(0) {\nentry:\n  %0 = mov -9223372036854775808\n"
      "  %1 = div %0, -1\n  ret %1\n}\n";
  overflow.name = "overflow";
  SubmitReply s3 = client.submit(overflow);
  ASSERT_TRUE(s3.accepted);
  ResultMsg r3 = client.wait_result(s3.job_id);
  EXPECT_EQ(r3.state, "failed");
  EXPECT_NE(r3.body.find("division overflow"), std::string::npos) << r3.body;

  // The failures were isolated to their jobs.
  EXPECT_TRUE(client.ping());
  JobRequest good;
  good.kind = "builtin";
  good.source = "ping";
  SubmitReply s4 = client.submit(good);
  ASSERT_TRUE(s4.accepted);
  EXPECT_EQ(client.wait_result(s4.job_id).state, "done");
}

TEST_F(DaemonServerTest, ZeroQueueRejectsEverySubmitWithBackpressure) {
  ServerOptions opts;
  opts.socket_path = sock_path("bp0");
  opts.max_queue = 0;
  start(opts);
  Client client(server_->socket_path());

  JobRequest req;
  req.kind = "builtin";
  req.source = "ping";
  SubmitReply s = client.submit(req);
  EXPECT_FALSE(s.accepted);
  EXPECT_EQ(s.reason, "backpressure");
  // Rejection is an answer, not a failure: the connection keeps working.
  EXPECT_TRUE(client.ping());

  stop();
  EXPECT_GE(server_->counters().rejected, 1u);
  EXPECT_EQ(server_->counters().admitted, 0u);
}

TEST_F(DaemonServerTest, FloodedQueueAnswersEverySubmitDefinitively) {
  ServerOptions opts;
  opts.socket_path = sock_path("flood");
  opts.workers = 1;
  opts.max_queue = 2;
  start(opts);
  Client client(server_->socket_path());

  JobRequest req;
  req.kind = "builtin";
  req.source = "passwd";
  constexpr int kSubmits = 12;
  std::vector<std::uint64_t> admitted;
  int rejected = 0;
  for (int i = 0; i < kSubmits; ++i) {
    SubmitReply s = client.submit(req);
    if (s.accepted) admitted.push_back(s.job_id);
    else {
      EXPECT_EQ(s.reason, "backpressure");
      ++rejected;
    }
  }
  // A tight submit loop against one worker and a 2-deep queue must trip
  // admission control: each analysis takes orders of magnitude longer than
  // a submit round trip.
  EXPECT_GT(rejected, 0);
  ASSERT_FALSE(admitted.empty());
  for (std::uint64_t id : admitted) {
    ResultMsg r = client.wait_result(id);
    EXPECT_EQ(r.state, "done");
  }

  stop();
  Server::Counters counters = server_->counters();
  EXPECT_EQ(counters.admitted + counters.rejected,
            static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(counters.admitted, admitted.size());
}

TEST_F(DaemonServerTest, CancelStopsAQueuedJob) {
  ServerOptions opts;
  opts.socket_path = sock_path("cancel");
  opts.workers = 1;
  opts.max_queue = 8;
  start(opts);
  Client client(server_->socket_path());

  // A spinning job holds the single worker, so the jobs queued behind it
  // are all still queued when the tail's cancel lands. Cancelling the
  // spinning job then stops its interpretation and frees the worker.
  const std::uint64_t blocker = hold_worker(client);
  JobRequest req;
  req.kind = "builtin";
  req.source = "ping";
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    SubmitReply s = client.submit(req);
    ASSERT_TRUE(s.accepted) << s.reason;
    ids.push_back(s.job_id);
  }
  EXPECT_EQ(client.cancel(ids.back()).state, "queued");
  EXPECT_EQ(client.cancel(blocker).state, "running");

  ResultMsg held = client.wait_result(blocker);
  EXPECT_EQ(held.state, "cancelled");
  EXPECT_EQ(held.exit_code, privanalyzer::kExitAllFailed);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i)
    EXPECT_EQ(client.wait_result(ids[i]).state, "done");
  ResultMsg last = client.wait_result(ids.back());
  EXPECT_EQ(last.state, "cancelled");
  EXPECT_EQ(last.exit_code, privanalyzer::kExitAllFailed);

  // Cancelling an unknown id is answered, not fatal.
  EXPECT_EQ(client.cancel(424'242).state, "unknown");
}

TEST_F(DaemonServerTest, DrainShutdownFinishesInFlightWorkAndRefusesNew) {
  ServerOptions opts;
  opts.socket_path = sock_path("drain");
  opts.workers = 1;
  start(opts);
  Client client(server_->socket_path());

  JobRequest req;
  req.kind = "builtin";
  req.source = "ping";
  SubmitReply s1 = client.submit(req);
  ASSERT_TRUE(s1.accepted);

  ASSERT_TRUE(client.shutdown("drain"));
  // The same connection's next submit is refused: the Draining ack was sent
  // by the same dispatch that set the flag. If the in-flight job finishes
  // first, the whole drain may already be complete and the server closes
  // the connection instead of replying — equally a refusal (job1's Result
  // was sent before the reap and is buffered or still readable).
  try {
    SubmitReply s2 = client.submit(req);
    EXPECT_FALSE(s2.accepted);
    EXPECT_EQ(s2.reason, "draining");
  } catch (const StageError&) {
  }

  // The in-flight job still reaches a terminal state and its Result is
  // still delivered over the draining connection.
  ResultMsg r1 = client.wait_result(s1.job_id);
  EXPECT_EQ(r1.state, "done");

  if (runner_.joinable()) runner_.join();  // run() returns once drained
  EXPECT_EQ(server_->counters().completed, 1u);
}

TEST_F(DaemonServerTest, AbortShutdownCancelsQueuedJobs) {
  ServerOptions opts;
  opts.socket_path = sock_path("abort");
  opts.workers = 1;
  opts.max_queue = 8;
  start(opts);
  Client client(server_->socket_path());

  // A spinning job holds the single worker and five jobs queue behind it;
  // the abort cancels the running one mid-interpretation and every queued
  // one before it starts.
  std::vector<std::uint64_t> ids = {hold_worker(client)};
  JobRequest req;
  req.kind = "builtin";
  req.source = "ping";
  for (int i = 0; i < 5; ++i) {
    SubmitReply s = client.submit(req);
    ASSERT_TRUE(s.accepted) << s.reason;
    ids.push_back(s.job_id);
  }
  ASSERT_TRUE(client.shutdown("abort"));

  for (std::uint64_t id : ids) {
    ResultMsg r = client.wait_result(id);
    EXPECT_EQ(r.state, "cancelled") << id;
    EXPECT_EQ(r.exit_code, privanalyzer::kExitAllFailed) << id;
  }

  if (runner_.joinable()) runner_.join();
}

TEST_F(DaemonServerTest, GarbageBytesGetAnErrorAndOnlyThatConnectionDies) {
  ServerOptions opts;
  opts.socket_path = sock_path("garbage");
  start(opts);

  Client bad(server_->socket_path());
  Client good(server_->socket_path());

  const char junk[12] = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T', 'T', 'P',
                         '/', '1'};
  bad.socket().write_all(junk, sizeof junk);
  std::optional<Frame> err = read_frame(bad.socket(), 10'000);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, MsgType::ErrorMsg);
  // The connection is then reaped: clean EOF from the server side.
  EXPECT_FALSE(read_frame(bad.socket(), 10'000).has_value());

  // Every other connection is unaffected.
  EXPECT_TRUE(good.ping());
  JobRequest req;
  req.kind = "builtin";
  req.source = "ping";
  SubmitReply s = good.submit(req);
  ASSERT_TRUE(s.accepted);
  EXPECT_EQ(good.wait_result(s.job_id).state, "done");
}

TEST_F(DaemonServerTest, OversizedFrameHeaderIsRejected) {
  ServerOptions opts;
  opts.socket_path = sock_path("oversize");
  start(opts);

  Client bad(server_->socket_path());
  Client good(server_->socket_path());
  // Valid magic and version, payload length 2 GiB.
  unsigned char hdr[12] = {0x50, 0x41, 0x44, 0x31, 1,    0,
                           1,    0,    0xff, 0xff, 0xff, 0x7f};
  bad.socket().write_all(hdr, sizeof hdr);
  std::optional<Frame> err = read_frame(bad.socket(), 10'000);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->type, MsgType::ErrorMsg);
  EXPECT_FALSE(read_frame(bad.socket(), 10'000).has_value());
  EXPECT_TRUE(good.ping());
}

TEST_F(DaemonServerTest, HalfClosedConnectionIsReapedQuietly) {
  ServerOptions opts;
  opts.socket_path = sock_path("halfclose");
  start(opts);

  {
    Client ephemeral(server_->socket_path());
    ASSERT_TRUE(ephemeral.ping());
  }  // destructor closes the socket: clean EOF on the server side

  // The reader sees EOF and housekeeping reaps within a few ticks.
  for (int i = 0; i < 100 && server_->counters().reaped_conns == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(server_->counters().reaped_conns, 1u);

  Client good(server_->socket_path());
  EXPECT_TRUE(good.ping());
}

TEST_F(DaemonServerTest, IdleConnectionsAreReaped) {
  ServerOptions opts;
  opts.socket_path = sock_path("idle");
  opts.idle_timeout_secs = 0.3;
  start(opts);

  Client idle(server_->socket_path());
  ASSERT_TRUE(idle.ping());
  for (int i = 0; i < 100 && server_->counters().reaped_conns == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(server_->counters().reaped_conns, 1u);
  // The reaped socket is closed; the next call on it fails loudly.
  EXPECT_THROW(idle.ping(), StageError);

  // A fresh, active connection is fine.
  Client fresh(server_->socket_path());
  EXPECT_TRUE(fresh.ping());
}

TEST_F(DaemonServerTest, HugeIdleTimeoutNeverReaps) {
  // --idle-timeout takes any finite duration; one beyond int64
  // milliseconds must mean "not yet idle", not an overflowed cutoff.
  ServerOptions opts;
  opts.socket_path = sock_path("idle-huge");
  opts.idle_timeout_secs = 1e300;
  start(opts);

  Client idle(server_->socket_path());
  ASSERT_TRUE(idle.ping());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(server_->counters().reaped_conns, 0u);
  EXPECT_TRUE(idle.ping());
}

TEST_F(DaemonServerTest, WarmRestartServesIdenticalResultsFromTheCacheFile) {
  const std::string cache_file = ::testing::TempDir() + "/pad_restart.cache";
  std::remove(cache_file.c_str());

  JobRequest req;
  req.kind = "builtin";
  req.source = "ping";
  std::string first_body;

  {
    ServerOptions opts;
    opts.socket_path = sock_path("restart1");
    opts.cache_file = cache_file;
    opts.checkpoint_jobs = 1;
    start(opts);
    Client client(server_->socket_path());
    SubmitReply s = client.submit(req);
    ASSERT_TRUE(s.accepted);
    first_body = client.wait_result(s.job_id).body;
    stop();  // drain checkpoints the cache file
    server_.reset();
  }
  std::ifstream probe(cache_file);
  ASSERT_TRUE(probe.good()) << "shutdown did not persist the cache file";

  ServerOptions opts;
  opts.socket_path = sock_path("restart2");
  opts.cache_file = cache_file;
  start(opts);
  Client client(server_->socket_path());
  SubmitReply s = client.submit(req);
  ASSERT_TRUE(s.accepted);
  EXPECT_EQ(client.wait_result(s.job_id).body, first_body);

  stop();
  std::remove(cache_file.c_str());
}

}  // namespace
}  // namespace pa::daemon

#include "daemon/server.h"

#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "support/diagnostics.h"
#include "support/str.h"

namespace pa::daemon {
namespace {

using support::DiagCode;
using support::Stage;
using support::StageError;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// How long the accept/housekeeping loop sleeps between ticks, and how long
/// reader threads poll before re-checking their dead/shutdown flags. Bounds
/// how stale a reaped connection or a lost worker ticket can get.
constexpr int kTickMs = 100;

/// Per-read budget for one frame's bytes once the header started arriving.
/// A peer that stalls mid-frame is a protocol error, not a reason to pin a
/// reader thread forever.
constexpr int kFrameReadTimeoutMs = 10'000;

}  // namespace

struct Server::Conn {
  std::uint64_t id = 0;
  support::Socket sock;
  std::mutex write_mu;
  std::thread reader;
  std::atomic<bool> dead{false};
  std::atomic<std::int64_t> last_activity_ms{0};
};

struct Server::Job {
  std::uint64_t id = 0;
  std::uint64_t conn_id = 0;
  JobRequest req;
  std::atomic<bool> cancel{false};
  JobState state = JobState::Queued;  // guarded by jobs_mu_
  JobOutcome outcome;                 // guarded by jobs_mu_; terminal only
};

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)),
      cache_(std::make_shared<rosa::QueryCache>()),
      listener_(opts_.socket_path),
      pool_(opts_.workers) {
  cache_->set_byte_budget(opts_.cache_bytes);
  if (!opts_.cache_file.empty()) {
    std::string warning;
    if (!cache_->load_file(opts_.cache_file, &warning))
      std::fprintf(stderr, "privanalyzerd: %s\n", warning.c_str());
  }
}

Server::~Server() {
  request_shutdown(true);
  reap_dead_conns(true);
  try {
    pool_.wait_idle();
  } catch (...) {
    // A task-boundary fault (thread_pool.task) may be parked in the pool's
    // error slot; the tickets it lost were re-pumped long ago.
  }
}

void Server::request_shutdown(bool abort) {
  if (abort) abort_.store(true, std::memory_order_relaxed);
  shutdown_requested_.store(true, std::memory_order_relaxed);
  listener_.shutdown();
  if (abort) {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : jobs_) job->cancel.store(true);
  }
}

void Server::run() {
  while (!shutdown_requested_.load(std::memory_order_relaxed)) {
    std::optional<support::Socket> sock;
    try {
      sock = listener_.accept(kTickMs);
    } catch (const StageError& e) {
      // An accept failure (including an injected daemon.accept fault) costs
      // at most the one connection that was arriving; keep serving.
      std::fprintf(stderr, "privanalyzerd: %s\n",
                   e.diagnostic().to_string().c_str());
    }
    if (sock) {
      auto conn = std::make_shared<Conn>();
      conn->sock = std::move(*sock);
      conn->last_activity_ms.store(now_ms(), std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conn->id = next_conn_id_++;
        conns_.emplace(conn->id, conn);
      }
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        ++counters_.accepted_conns;
      }
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
    }
    housekeeping();
  }

  // Drain: no new connections or admissions; let every queued and running
  // job reach a terminal state (abort already cancelled them), re-pumping
  // tickets in case a boundary fault ate one.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      if (queued_count_ == 0 && running_count_ == 0) break;
      if (abort_.load(std::memory_order_relaxed))
        for (auto& [id, job] : jobs_) job->cancel.store(true);
    }
    pump_tickets();
    std::this_thread::sleep_for(std::chrono::milliseconds(kTickMs / 2));
  }
  try {
    pool_.wait_idle();
  } catch (...) {
  }
  reap_dead_conns(true);
  checkpoint_cache(true);
}

Server::Counters Server::counters() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return counters_;
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  // Keeps serving through a drain (Status polls and Result delivery must
  // work while jobs finish); the final reap sets `dead` to stop it.
  while (!conn->dead.load(std::memory_order_relaxed)) {
    try {
      if (!conn->sock.readable(kTickMs)) continue;
      std::optional<Frame> frame =
          read_frame(conn->sock, kFrameReadTimeoutMs);
      if (!frame) break;  // clean EOF between frames
      conn->last_activity_ms.store(now_ms(), std::memory_order_relaxed);
      dispatch(*conn, *frame);
    } catch (const StageError& e) {
      // Protocol violation or I/O fault (including injected daemon.read):
      // tell the peer what went wrong if the socket still writes, then reap
      // this connection only.
      send_on(*conn, Frame{MsgType::ErrorMsg,
                           encode_kv({{"error", e.diagnostic().to_string()}})});
      break;
    } catch (const std::exception& e) {
      send_on(*conn, Frame{MsgType::ErrorMsg, encode_kv({{"error", e.what()}})});
      break;
    }
  }
  conn->dead.store(true, std::memory_order_relaxed);
}

void Server::dispatch(Conn& conn, const Frame& frame) {
  switch (frame.type) {
    case MsgType::Submit:
      handle_submit(conn, frame);
      return;
    case MsgType::Status:
    case MsgType::Cancel: {
      // Both answer with the job's state, and a terminal job's exit code
      // and body, so a client whose connection closed still gets its
      // result by polling.
      KvPairs kv = decode_kv(frame.payload);
      std::uint64_t id = kv_get_u64(kv, "job_id", 0);
      StatusReply reply{id, "unknown"};
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        auto it = jobs_.find(id);
        if (it != jobs_.end()) {
          Job& job = *it->second;
          if (frame.type == MsgType::Cancel) job.cancel.store(true);
          reply.state = std::string(job_state_name(job.state));
          if (is_terminal(job.state)) {
            reply.exit_code = job.outcome.exit_code;
            reply.body = job.outcome.body;
          }
        }
      }
      send_on(conn, reply.to_frame());
      return;
    }
    case MsgType::Ping:
      send_on(conn, Frame{MsgType::Pong, ""});
      return;
    case MsgType::Shutdown: {
      KvPairs kv = decode_kv(frame.payload);
      send_on(conn, Frame{MsgType::Draining, ""});
      request_shutdown(kv_get(kv, "mode", "drain") == "abort");
      return;
    }
    default:
      support::fail_stage(
          Stage::Daemon, DiagCode::ProtocolError, "",
          str::cat("unexpected client frame type ",
                   static_cast<unsigned>(frame.type), " (",
                   msg_type_name(frame.type), ")"));
  }
}

void Server::handle_submit(Conn& conn, const Frame& frame) {
  JobRequest req = JobRequest::from_frame(frame);
  SubmitReply reply;
  if (shutdown_requested_.load(std::memory_order_relaxed)) {
    reply.reason = "draining";
    send_on(conn, reply.to_frame());
    return;
  }
  std::uint64_t job_id = 0;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (queued_count_ >= opts_.max_queue) {
      ++counters_.rejected;
      reply.reason = "backpressure";
    } else {
      auto job = std::make_unique<Job>();
      job->id = job_id = next_job_id_++;
      job->conn_id = conn.id;
      job->req = std::move(req);
      jobs_.emplace(job->id, std::move(job));
      ready_[conn.id].push_back(job_id);
      ++queued_count_;
      ++counters_.admitted;
      reply.accepted = true;
      reply.job_id = job_id;
    }
  }
  send_on(conn, reply.to_frame());
  if (!reply.accepted) return;
  send_on(conn, EventMsg{job_id, "state", "queued"}.to_frame());
  pool_.submit([this] { run_next_job(); });
}

void Server::run_next_job() {
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (queued_count_ == 0 || ready_.empty()) return;
    // Fair round-robin: serve the first connection queue strictly after the
    // last-served connection id, wrapping around. Every queue in ready_ is
    // non-empty (empty ones are erased on pop). A closed connection's queue
    // stays and takes its turns like any other.
    auto pick = ready_.upper_bound(rr_last_conn_);
    if (pick == ready_.end()) pick = ready_.begin();
    rr_last_conn_ = pick->first;
    std::uint64_t job_id = pick->second.front();
    pick->second.pop_front();
    if (pick->second.empty()) ready_.erase(pick);
    job = jobs_.at(job_id).get();
    job->state = JobState::Running;
    --queued_count_;
    ++running_count_;
  }
  send_to_conn(job->conn_id, EventMsg{job->id, "state", "running"}.to_frame());

  if (job->cancel.load(std::memory_order_relaxed) ||
      abort_.load(std::memory_order_relaxed)) {
    finish_job(*job, JobOutcome{JobState::Cancelled,
                                privanalyzer::kExitAllFailed, ""});
    return;
  }
  std::shared_ptr<rosa::QueryCache> cache =
      job->req.use_cache ? cache_ : nullptr;
  finish_job(*job, run_job(job->req, std::move(cache), &job->cancel,
                           opts_.default_deadline_secs));
}

void Server::finish_job(Job& job, JobOutcome outcome) {
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job.state = outcome.state;
    job.outcome = outcome;
    ++counters_.completed;
    ++completed_since_checkpoint_;
  }
  ResultMsg result{job.id, std::string(job_state_name(outcome.state)),
                   outcome.exit_code, std::move(outcome.body)};
  send_to_conn(job.conn_id, result.to_frame());
  // Only now stop counting the job as running: the drain loop in run()
  // reaps connections once running_count_ hits zero, and the Result above
  // must be on the wire before that can happen.
  std::lock_guard<std::mutex> lock(jobs_mu_);
  --running_count_;
}

void Server::send_to_conn(std::uint64_t conn_id, const Frame& frame) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  send_on(*conn, frame);
}

void Server::send_on(Conn& conn, const Frame& frame) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.dead.load(std::memory_order_relaxed)) return;
  try {
    write_frame(conn.sock, frame);
    conn.last_activity_ms.store(now_ms(), std::memory_order_relaxed);
  } catch (const std::exception&) {
    // Peer gone or injected daemon.write fault: this connection is done,
    // but its jobs stay in the global table for a reconnecting client.
    conn.dead.store(true, std::memory_order_relaxed);
  }
}

void Server::housekeeping() {
  // Re-pump a worker ticket while queued work remains: a thread_pool.task
  // boundary fault consumes a ticket without running it, and this converges
  // back to one-ticket-per-queued-job within a tick.
  pump_tickets();

  if (opts_.idle_timeout_secs > 0) {
    // Compared in floating point: any finite timeout, however large, is
    // representable there, where an int64 millisecond cutoff could overflow.
    const std::int64_t now = now_ms();
    const double timeout_ms = opts_.idle_timeout_secs * 1000;
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_)
      if (static_cast<double>(
              now - conn->last_activity_ms.load(std::memory_order_relaxed)) >
          timeout_ms)
        conn->dead.store(true, std::memory_order_relaxed);
  }
  reap_dead_conns(false);
  checkpoint_cache(false);
}

void Server::pump_tickets() {
  bool need = false;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    need = queued_count_ > 0;
  }
  if (need) pool_.submit([this] { run_next_job(); });
}

void Server::reap_dead_conns(bool all) {
  std::vector<std::shared_ptr<Conn>> reaped;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (all) it->second->dead.store(true, std::memory_order_relaxed);
      if (it->second->dead.load(std::memory_order_relaxed)) {
        reaped.push_back(std::move(it->second));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // A dead connection's jobs stay: queued ones keep their round-robin turn
  // and run, their frames are dropped by send_to_conn, and the job table
  // keeps every terminal state for a Status poll from another connection.
  for (auto& conn : reaped) {
    if (conn->reader.joinable()) conn->reader.join();
    std::lock_guard<std::mutex> lock(jobs_mu_);
    ++counters_.reaped_conns;
  }
}

void Server::checkpoint_cache(bool force) {
  if (opts_.cache_file.empty()) return;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (!force && (opts_.checkpoint_jobs == 0 ||
                   completed_since_checkpoint_ < opts_.checkpoint_jobs))
      return;
    completed_since_checkpoint_ = 0;
  }
  std::string warning;
  if (!cache_->save_file(opts_.cache_file, &warning))
    std::fprintf(stderr, "privanalyzerd: %s\n", warning.c_str());
}

}  // namespace pa::daemon

// privanalyzerd: a long-running analysis service over a Unix-domain socket.
//
// One Server owns the listener, a shared support::ThreadPool of analysis
// workers, a global job table, and the resident multi-tenant verdict cache.
// The design goals are the robustness properties tests/daemon_soak_test.cpp
// hammers on:
//
//  * Admission control — at most `max_queue` jobs may be queued (not yet
//    running) across all connections; excess submits get an explicit
//    Rejected("backpressure") instead of unbounded buffering.
//  * Fair scheduling — queued jobs are drained round-robin across client
//    connections, so one chatty client cannot starve the rest: each worker
//    ticket picks the next connection after the previously served one that
//    has work.
//  * Per-job isolation — jobs run through daemon::run_job (never throws);
//    a StageError or injected fault in one job yields a Failed result for
//    that job and nothing else. Worker tickets are self-healing: a fault at
//    the pool's task boundary (`thread_pool.task`) loses one ticket, and
//    the housekeeping tick re-pumps tickets while queued work remains.
//  * Deadlines and cancellation — every job gets a wall budget (its own or
//    `default_deadline_secs`) through the pipeline's max_total_seconds, and
//    a per-job cancel flag wired into rosa::SearchLimits::cancel, which the
//    pipeline also hands to ChronoPriv's interpreter. Cancel frames and
//    abort-shutdown stop a search at its next frontier pop and a program
//    still interpreting within one 2^16-instruction turn, so no job holds a
//    worker after its cancel (a spinning program would otherwise run its
//    whole 2e9-instruction budget).
//  * Connection hygiene — a protocol error (bad magic/version, oversized
//    frame, truncated payload) or an injected daemon.read/daemon.write
//    fault gets a best-effort Error frame, then the connection is reaped;
//    every other connection keeps being served. Idle connections past
//    `idle_timeout_secs` are reaped too. The job table is global, so a
//    client whose connection died can reconnect and poll its job by id.
//  * Resident cache — one rosa::QueryCache shared by every job that opts
//    in, bounded by `cache_bytes` (LRU eviction), backed by `cache_file`
//    when set: loaded on start (with retry), checkpointed atomically every
//    `checkpoint_jobs` completions and again at shutdown, so a crash loses
//    at most one checkpoint window.
//  * Drain shutdown — request_shutdown() stops accepting and admitting,
//    lets queued + running jobs reach terminal states (abort=true cancels
//    them instead), flushes the cache, reaps connections, and returns from
//    run().
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "daemon/job.h"
#include "daemon/proto.h"
#include "rosa/cache.h"
#include "support/socket.h"
#include "support/thread_pool.h"

namespace pa::daemon {

struct ServerOptions {
  std::string socket_path;
  /// Analysis worker threads (0 = hardware_concurrency).
  unsigned workers = 2;
  /// Admission bound: queued-but-not-running jobs across all connections.
  std::size_t max_queue = 16;
  /// Resident verdict-cache byte budget (0 = unlimited).
  std::size_t cache_bytes = 64u << 20;
  /// Persistent cache backing store ("" = memory-only).
  std::string cache_file;
  /// Checkpoint cache_file every N completed jobs (0 = only at shutdown).
  unsigned checkpoint_jobs = 8;
  /// Reap connections with no traffic for this long (0 = never).
  double idle_timeout_secs = 0.0;
  /// Wall budget for jobs that did not set their own deadline_secs.
  double default_deadline_secs = 30.0;
};

class Server {
 public:
  /// Binds and listens immediately (throws a Stage::Daemon StageError on
  /// failure) and loads `cache_file` if set, so a constructed Server is
  /// ready to serve before run() is called.
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until request_shutdown(); returns after the drain completed.
  void run();

  /// Stop accepting/admitting and begin the drain. abort=true additionally
  /// cancels every queued and running job. Safe from any thread (the
  /// signal-watcher pattern: handlers set a flag, a thread calls this).
  void request_shutdown(bool abort = false);

  const ServerOptions& options() const { return opts_; }
  const std::string& socket_path() const { return opts_.socket_path; }

  /// Lifetime counters for tests and the daemon's exit log.
  struct Counters {
    std::uint64_t accepted_conns = 0;
    std::uint64_t reaped_conns = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;  // jobs that reached a terminal state
  };
  Counters counters() const;

 private:
  struct Conn;
  struct Job;

  void reader_loop(std::shared_ptr<Conn> conn);
  void dispatch(Conn& conn, const Frame& frame);
  void handle_submit(Conn& conn, const Frame& frame);
  void run_next_job();  // one worker ticket: serve the RR-next queued job
  void send_to_conn(std::uint64_t conn_id, const Frame& frame);
  void send_on(Conn& conn, const Frame& frame);  // best-effort, marks dead
  void housekeeping();
  void pump_tickets();
  void reap_dead_conns(bool all);
  void checkpoint_cache(bool force);
  void finish_job(Job& job, JobOutcome outcome);

  ServerOptions opts_;
  std::shared_ptr<rosa::QueryCache> cache_;
  support::UnixListener listener_;
  support::ThreadPool pool_;

  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> abort_{false};

  mutable std::mutex conns_mu_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 1;

  // jobs_mu_ guards the job table, the per-connection ready queues, the
  // round-robin cursor, and every counter below it.
  mutable std::mutex jobs_mu_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 1;
  std::map<std::uint64_t, std::deque<std::uint64_t>> ready_;  // conn -> jobs
  std::uint64_t rr_last_conn_ = 0;
  std::size_t queued_count_ = 0;
  std::size_t running_count_ = 0;
  std::uint64_t completed_since_checkpoint_ = 0;
  Counters counters_;
};

}  // namespace pa::daemon

// privanalyzerd: the long-running PrivAnalyzer analysis service.
//
//   privanalyzerd --socket PATH [options]
//     --socket PATH        Unix-domain socket to listen on (required)
//     --workers N          analysis worker threads (default 2, 0 = cores)
//     --max-queue N        queued-job admission bound; excess submits get
//                          Rejected(backpressure) (default 16)
//     --cache-bytes N      resident verdict-cache byte budget, LRU-evicted
//                          (default 64 MiB, 0 = unlimited)
//     --rosa-cache FILE    crash-safe persistent backing store for the
//                          resident cache: loaded on start, checkpointed
//                          atomically while serving and again at shutdown
//     --checkpoint-jobs N  checkpoint the cache file every N completed jobs
//                          (default 8, 0 = only at shutdown)
//     --idle-timeout SECS  reap client connections idle this long (default
//                          0 = never)
//     --deadline SECS      default per-job wall budget for jobs that do not
//                          set their own (default 30)
//
// The first SIGINT/SIGTERM starts a drain (stop accepting, finish queued
// and running jobs, flush the cache, exit 0); a second one aborts (cancel
// every job cooperatively, then the same cleanup).
#include <atomic>
#include <climits>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <thread>

#include "daemon/server.h"
#include "privanalyzer/pipeline.h"
#include "support/error.h"
#include "support/str.h"

using namespace pa;

namespace {

std::atomic<int> g_signals{0};

void handle_signal(int) { g_signals.fetch_add(1); }

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --socket PATH [--workers N] [--max-queue N]\n"
               "       [--cache-bytes N] [--rosa-cache FILE] "
               "[--checkpoint-jobs N]\n"
               "       [--idle-timeout SECS] [--deadline SECS]\n";
  return privanalyzer::kExitUsage;
}

/// A numeric flag value the strict parsers (support/str.h) rejected: say
/// which, then print the usage text.
int bad_value(const char* argv0, const std::string& flag, const char* value) {
  std::cerr << "error: bad value '" << value << "' for " << flag << "\n";
  return usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  daemon::ServerOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      opts.socket_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      const auto n = str::parse_u64(argv[++i], UINT_MAX);
      if (!n) return bad_value(argv[0], arg, argv[i]);
      opts.workers = static_cast<unsigned>(*n);
    } else if (arg == "--max-queue" && i + 1 < argc) {
      const auto n = str::parse_u64(argv[++i], SIZE_MAX);
      if (!n) return bad_value(argv[0], arg, argv[i]);
      opts.max_queue = static_cast<std::size_t>(*n);
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      const auto n = str::parse_u64(argv[++i], SIZE_MAX);
      if (!n) return bad_value(argv[0], arg, argv[i]);
      opts.cache_bytes = static_cast<std::size_t>(*n);
    } else if (arg == "--rosa-cache" && i + 1 < argc) {
      opts.cache_file = argv[++i];
    } else if (arg == "--checkpoint-jobs" && i + 1 < argc) {
      const auto n = str::parse_u64(argv[++i], UINT_MAX);
      if (!n) return bad_value(argv[0], arg, argv[i]);
      opts.checkpoint_jobs = static_cast<unsigned>(*n);
    } else if (arg == "--idle-timeout" && i + 1 < argc) {
      const auto secs = str::parse_seconds(argv[++i]);
      if (!secs) return bad_value(argv[0], arg, argv[i]);
      opts.idle_timeout_secs = *secs;
    } else if (arg == "--deadline" && i + 1 < argc) {
      const auto secs = str::parse_seconds(argv[++i]);
      if (!secs) return bad_value(argv[0], arg, argv[i]);
      opts.default_deadline_secs = *secs;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) return usage(argv[0]);

  struct sigaction sa = {};
  sa.sa_handler = handle_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  try {
    daemon::Server server(opts);
    // Handlers only bump a counter; this watcher translates it into drain
    // (first signal) or abort (second) without async-signal-unsafe work.
    std::atomic<bool> done{false};
    std::thread watcher([&] {
      int seen = 0;
      while (!done.load()) {
        int now = g_signals.load();
        if (now > seen) {
          server.request_shutdown(/*abort=*/now > 1);
          seen = now;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
    std::cerr << "privanalyzerd: listening on " << opts.socket_path << "\n";
    server.run();
    done.store(true);
    watcher.join();
    daemon::Server::Counters c = server.counters();
    std::cerr << "privanalyzerd: drained (" << c.completed
              << " jobs completed, " << c.rejected << " rejected, "
              << c.accepted_conns << " connections)\n";
    return privanalyzer::kExitOk;
  } catch (const std::exception& e) {
    std::cerr << "privanalyzerd: fatal: " << e.what() << "\n";
    return privanalyzer::kExitAllFailed;
  }
}

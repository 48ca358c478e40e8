#include "driver/workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/expected.h"
#include "core/reference.h"
#include "core/stats.h"
#include "daemon/client.h"
#include "daemon/job.h"
#include "daemon/server.h"
#include "driver/replica.h"
#include "programs/world.h"

namespace pabench {
namespace {

namespace pv = pa::privanalyzer;
namespace pd = pa::daemon;
using pa::programs::ProgramSpec;

/// Set-up runs this many times per untraced run; setup_s is the median.
constexpr int kSetupReps = 7;
constexpr std::size_t kMaxLoggedErrors = 5;

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// The process's peak resident set (VmHWM). Not ru_maxrss: that survives
/// execve, so under a launcher it reads the launcher's peak whenever that is
/// the larger one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// One timed phase of a workload.
struct Phase {
  std::vector<double> latency_ms;  // completed ops only
  /// Latencies stated at the reference's nominal speed (calibrated phases
  /// only); see core/reference.h.
  std::vector<double> calibrated_ms;
  std::vector<double> reference_ms;  // every timing of the reference
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

void record_failure(RunReport& r, Phase& ph, std::string what) {
  ++ph.failed;
  if (r.errors.size() < kMaxLoggedErrors) r.errors.push_back(std::move(what));
}

/// Call `op(phase)` back to back until `seconds` have passed (at least once).
template <typename Op>
Phase timed_loop(double seconds, Op&& op) {
  Phase ph;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  do {
    op(ph);
  } while (now_ns() < deadline);
  ph.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  ph.cpu_s = cpu_seconds() - cpu0;
  return ph;
}

/// timed_loop that also times the reference after every op, so each op that
/// completed is recorded at the reference's nominal speed as well, scaled by
/// the reference times just before and just after it.
template <typename Op>
Phase calibrated_loop(double seconds, Op&& op) {
  time_reference_ms();  // the first call builds the reference's static state
  double before = time_reference_ms();
  return timed_loop(seconds, [&](Phase& ph) {
    const std::size_t done = ph.latency_ms.size();
    op(ph);
    const double after = time_reference_ms();
    ph.reference_ms.push_back(after);
    if (ph.latency_ms.size() > done)
      ph.calibrated_ms.push_back(
          calibrate(ph.latency_ms.back(), before, after));
    before = after;
  });
}

/// Run `setup` kSetupReps times, each after an untimed `prepare`, and return
/// the median set-up time in seconds, calibrated like op latencies by the
/// reference times just before and just after it.
template <typename Prepare, typename Setup>
double timed_setups(Prepare&& prepare, Setup&& setup) {
  std::vector<double> secs;
  time_reference_ms();  // the first call builds the reference's static state
  double before = time_reference_ms();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    prepare();
    const std::int64_t t0 = now_ns();
    setup();
    const double took = static_cast<double>(now_ns() - t0) / 1e9;
    const double after = time_reference_ms();
    secs.push_back(calibrate(took, before, after));
    before = after;
  }
  return median(std::move(secs));
}

void count_phase(RunReport& r, const Phase& ph) {
  r.attempted += ph.attempted;
  r.failed += ph.failed;
}

/// The bounded end-to-end metrics, plus context figures that are printed but
/// not bounded. On a shared host whose speed changes by up to 1.6x for
/// seconds to minutes at a time, the raw latencies, throughput and CPU per
/// op of a run depend on how much of it fell in slow periods (ten-run spread
/// up to 0.38 of the median, over the largest allowed bound); the
/// calibrated median does not. Peak RSS is bounded as it stands when set-up
/// ends: daemon_warm's grows with every job served (the server keeps each
/// finished job), so its whole-run peak follows throughput.
std::vector<Metric> end_to_end(RunReport& r, double setup_s,
                               double setup_rss_mb, const Phase& ph,
                               double preferred_tail) {
  const std::size_t n = ph.latency_ms.size();
  const double tail_pct = reported_tail_percentile(n, preferred_tail);
  const double ops = static_cast<double>(std::max<std::size_t>(n, 1));
  r.context = {
      {"op_ms.p50", median(ph.latency_ms), "ms"},
      {"op_ms.tail", percentile(ph.latency_ms, tail_pct), "ms"},
      {"reference_ms.p50", median(ph.reference_ms), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ops_per_s", static_cast<double>(n) / ph.wall_s, "1/s"},
      {"cpu_ms_per_op", ph.cpu_s * 1000.0 / ops, "ms"},
      {"failed_ratio", ratio_with_base(r.failed, r.attempted).value, "-"},
      {"op_ms.tail_percentile", tail_pct, "%"},
      {"samples", static_cast<double>(n), "count"},
  };
  return {
      {"setup_s", setup_s, "s"},
      {"op_ms.calibrated", median(ph.calibrated_ms), "ms"},
      {"peak_rss_mb.setup", setup_rss_mb, "MB"},
  };
}

/// Client-side daemon figures for the traced daemon_warm run; zero elsewhere
/// (the one-shot workloads never reach the daemon layer).
struct DaemonFigures {
  double submit_ms = 0.0;
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  double run_job_ms = 0.0;
  double overhead_ms = 0.0;
};

/// Per-layer metrics from the traced phase's spans. Ops are the spans named
/// "op" (one batch pass, or one replayed daemon job); each layer's figure is
/// the median over ops of its summed self time, counters likewise. Layers a
/// workload never runs report 0.
std::vector<Metric> layer_metrics(
    const SpanRecorder& rec,
    const std::map<std::uint64_t, StageCounters>& counters,
    const DaemonFigures& d, double trace_overhead_ms) {
  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::uint64_t, std::int64_t> op_ns;
  std::map<std::uint64_t, std::map<std::string, std::int64_t>> layer_ns;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "op") op_ns[spans[i].op] += spans[i].duration_ns();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (op_ns.count(spans[i].op) && spans[i].name != "op")
      layer_ns[spans[i].op][spans[i].name] += self[i];

  auto per_op = [&](auto&& fn) {
    std::vector<double> v;
    for (const auto& [op, ns] : op_ns) {
      const auto c = counters.find(op);
      const StageCounters none;
      std::optional<double> x =
          fn(layer_ns[op], c == counters.end() ? none : c->second);
      if (x) v.push_back(*x);
    }
    return median(std::move(v));
  };
  auto layer_ms = [&](const char* name) {
    return per_op([name](auto& l, const StageCounters&) {
      return std::optional<double>(ms(l[name]));
    });
  };
  auto share_pct = [&](const char* name) {
    std::int64_t part = 0, whole = 0;
    for (const auto& [op, ns] : op_ns) {
      part += layer_ns[op][name];
      whole += ns;
    }
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
  };

  std::uint64_t hits = 0, lookups = 0;
  for (const auto& [op, ns] : op_ns)
    if (auto c = counters.find(op); c != counters.end()) {
      hits += c->second.cache_hits;
      lookups += c->second.cache_hits + c->second.cache_misses;
    }

  using Opt = std::optional<double>;
  return {
      {"chronopriv.ms", layer_ms("chronopriv"), "ms"},
      {"chronopriv.insns",
       per_op([](auto&, const StageCounters& c) {
         return Opt(static_cast<double>(c.instructions));
       }),
       "count"},
      {"chronopriv.ns_per_insn",
       per_op([](auto& l, const StageCounters& c) {
         return c.instructions ? Opt(static_cast<double>(l["chronopriv"]) /
                                     static_cast<double>(c.instructions))
                               : std::nullopt;
       }),
       "ns"},
      {"chronopriv.share_pct", share_pct("chronopriv"), "%"},
      {"os.world_ms", layer_ms("os.world"), "ms"},
      {"autopriv.ms", layer_ms("autopriv"), "ms"},
      {"attacks.scenario_ms", layer_ms("attacks.scenario"), "ms"},
      {"filters.ms", layer_ms("filters"), "ms"},
      {"rosa.ms", layer_ms("rosa"), "ms"},
      {"rosa.queries",
       per_op([](auto&, const StageCounters& c) {
         return Opt(static_cast<double>(c.queries));
       }),
       "count"},
      {"rosa.states",
       per_op([](auto&, const StageCounters& c) {
         return Opt(static_cast<double>(c.states));
       }),
       "count"},
      {"rosa.transitions",
       per_op([](auto&, const StageCounters& c) {
         return Opt(static_cast<double>(c.transitions));
       }),
       "count"},
      {"rosa.us_per_state",
       per_op([](auto& l, const StageCounters& c) {
         return c.states ? Opt(static_cast<double>(l["rosa"]) / 1e3 /
                               static_cast<double>(c.states))
                         : std::nullopt;
       }),
       "us"},
      {"rosa.peak_bytes",
       per_op([](auto&, const StageCounters& c) {
         return Opt(static_cast<double>(c.peak_bytes));
       }),
       "bytes"},
      {"rosa.cache_hit_ratio", ratio_with_base(hits, lookups).value, "ratio"},
      {"rosa.cache_lookups",
       per_op([](auto&, const StageCounters& c) {
         return Opt(static_cast<double>(c.cache_hits + c.cache_misses));
       }),
       "count"},
      {"rosa.share_pct", share_pct("rosa"), "%"},
      {"privanalyzer.self_ms", layer_ms("privanalyzer"), "ms"},
      {"daemon.submit_ms", d.submit_ms, "ms"},
      {"daemon.queue_wait_ms", d.queue_wait_ms, "ms"},
      {"daemon.service_ms", d.service_ms, "ms"},
      {"daemon.run_job_ms", d.run_job_ms, "ms"},
      {"daemon.overhead_ms", d.overhead_ms, "ms"},
      {"trace.overhead_ms", trace_overhead_ms, "ms"},
  };
}

// --- one-shot batch workloads ----------------------------------------------

/// stock_cold and refactor_filters: one op is one pass over `makers`' programs
/// in a seeded order, each through analyze_program with a fresh private
/// verdict cache, exactly as one CLI invocation per program does.
class BatchWorkload {
 public:
  BatchWorkload(std::vector<ProgramSpec (*)()> makers,
                pv::PipelineOptions options, const ExpectedFile& expected)
      : makers_(std::move(makers)),
        options_(std::move(options)),
        expected_(expected) {}

  /// Build the specs and run one checked, untimed warm-up op; its renders
  /// are the reference the traced replica must reproduce.
  void setup(RunReport& r, Phase& ph, std::mt19937_64& rng) {
    specs_.clear();
    for (auto make : makers_) specs_.push_back(make());
    std::vector<pv::ProgramAnalysis> out = run_op(rng, r, ph);
    reference_.clear();
    for (const pv::ProgramAnalysis& a : out)
      reference_.push_back(pd::render_job_result(a));
  }

  std::vector<pv::ProgramAnalysis> run_op(std::mt19937_64& rng, RunReport& r,
                                          Phase& ph) {
    const std::vector<std::size_t> order = shuffled(rng);
    std::vector<pv::ProgramAnalysis> out(specs_.size());
    ++ph.attempted;
    try {
      const std::int64_t t0 = now_ns();
      for (std::size_t i : order)
        out[i] = pv::analyze_program(specs_[i], options_);
      ph.latency_ms.push_back(ms(now_ns() - t0));
    } catch (const std::exception& e) {
      record_failure(r, ph, e.what());
      return out;
    }
    check(out, r, ph);
    return out;
  }

  /// The decomposed replica under spans; also checks it renders exactly as
  /// analyze_program did in set-up.
  void traced_op(std::mt19937_64& rng, RunReport& r, Phase& ph,
                 std::uint64_t op,
                 std::map<std::uint64_t, StageCounters>& counters) {
    const std::vector<std::size_t> order = shuffled(rng);
    std::vector<pv::ProgramAnalysis> out(specs_.size());
    ++ph.attempted;
    try {
      const int root = r.spans.begin("op", op);
      for (std::size_t i : order)
        out[i] = analyze_traced(specs_[i], options_, r.spans, op, root);
      r.spans.end(root);
      ph.latency_ms.push_back(ms(r.spans.spans()[root].duration_ns()));
    } catch (const std::exception& e) {
      record_failure(r, ph, e.what());
      return;
    }
    StageCounters& c = counters[op];
    for (std::size_t i = 0; i < out.size(); ++i) {
      c.add(counters_of(out[i]));
      if (pd::render_job_result(out[i]) != reference_[i]) {
        record_failure(r, ph,
                       specs_[i].name + ": replica differs from analyze_program");
        return;
      }
    }
    check(out, r, ph);
  }

 private:
  std::vector<std::size_t> shuffled(std::mt19937_64& rng) const {
    std::vector<std::size_t> order(specs_.size());
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
  }

  void check(const std::vector<pv::ProgramAnalysis>& out, RunReport& r,
             Phase& ph) const {
    for (const pv::ProgramAnalysis& a : out) {
      std::string err = check_analysis(a);
      if (!err.empty()) {
        record_failure(r, ph, std::move(err));
        return;
      }
    }
  }

  std::string check_analysis(const pv::ProgramAnalysis& a) const {
    if (!a.ok()) return a.program + ": analysis failed";
    const auto it = expected_.find(a.program);
    if (it == expected_.end()) return a.program + ": not in the expected file";
    const ProgramOutcome base = baseline_outcome(a);
    std::string err = check_outcome(it->second, base);
    if (!err.empty() || options_.filters == pv::FilterMode::Off) return err;
    if (a.filtered_verdicts.size() != a.chrono.rows.size())
      return a.program + ": filtered matrix missing";
    err = check_filtered_monotone(base, filtered_outcome(a));
    return err.empty() ? err : a.program + ": " + err;
  }

  std::vector<ProgramSpec (*)()> makers_;
  pv::PipelineOptions options_;
  const ExpectedFile& expected_;
  std::vector<ProgramSpec> specs_;
  std::vector<std::string> reference_;
};

RunReport run_batch(const RunOptions& o, std::vector<ProgramSpec (*)()> makers,
                    pv::FilterMode filters, double preferred_tail) {
  const ExpectedFile expected = parse_expected(read_file(o.expected_path));
  pv::PipelineOptions options;
  options.filters = filters;
  options.rosa_threads = 1;
  BatchWorkload w(std::move(makers), options, expected);
  std::mt19937_64 rng(o.seed);
  RunReport r;
  Phase warmup;

  if (!o.trace) {
    const double setup_s =
        timed_setups([] {}, [&] { w.setup(r, warmup, rng); });
    const double setup_rss_mb = peak_rss_mb();
    Phase ph =
        calibrated_loop(o.seconds, [&](Phase& p) { w.run_op(rng, r, p); });
    count_phase(r, warmup);
    count_phase(r, ph);
    r.metrics = end_to_end(r, setup_s, setup_rss_mb, ph, preferred_tail);
    return r;
  }

  // Traced run: half untraced (the overhead baseline), half decomposed and
  // traced.
  w.setup(r, warmup, rng);
  Phase plain =
      timed_loop(o.seconds / 2, [&](Phase& p) { w.run_op(rng, r, p); });
  std::map<std::uint64_t, StageCounters> counters;
  std::uint64_t next_op = 1;
  Phase traced = timed_loop(o.seconds / 2, [&](Phase& p) {
    w.traced_op(rng, r, p, next_op++, counters);
  });
  for (const Phase* p : {&warmup, &plain, &traced}) count_phase(r, *p);
  r.metrics = layer_metrics(
      r.spans, counters, {},
      median(traced.latency_ms) - median(plain.latency_ms));
  r.context.push_back({"untraced op_ms.p50", median(plain.latency_ms), "ms"});
  r.context.push_back({"traced op_ms.p50", median(traced.latency_ms), "ms"});
  return r;
}

// --- daemon_warm ---------------------------------------------------------------

/// An in-process daemon::Server (2 workers, default queue and cache budgets)
/// with two Client connections that each submit a seeded sequence of builtin
/// passwd, su and ping jobs, waiting for each Result before the next submit.
class DaemonWorkload {
 public:
  static constexpr const char* kPrograms[] = {"passwd", "su", "ping"};
  static constexpr std::size_t kClients = 2;
  /// Jobs a client runs between two timings of the reference (about 60 ms
  /// of jobs per 4 ms reference).
  static constexpr std::size_t kJobsPerReference = 16;

  DaemonWorkload(const ExpectedFile& expected, std::string socket_path)
      : expected_(expected), socket_path_(std::move(socket_path)) {}
  ~DaemonWorkload() { teardown(); }
  DaemonWorkload(const DaemonWorkload&) = delete;
  DaemonWorkload& operator=(const DaemonWorkload&) = delete;

  /// Build the reference bodies (one-shot analyses, checked against the
  /// expected file), start the server, connect the clients, warm the
  /// resident cache with one job per program, then one warm-up job per
  /// client.
  void setup(RunReport& r, Phase& ph) {
    requests_.clear();
    specs_.clear();
    bodies_.clear();
    for (const char* name : kPrograms) {
      pd::JobRequest req;
      req.kind = "builtin";
      req.source = name;
      specs_.push_back(pd::resolve_program(req));
      const pv::ProgramAnalysis a = pv::analyze_program(
          specs_.back(),
          pd::make_pipeline_options(req, std::make_shared<pa::rosa::QueryCache>(),
                                    nullptr, deadline_secs()));
      const auto it = expected_.find(a.program);
      const std::string err =
          it == expected_.end()
              ? a.program + ": not in the expected file"
              : check_outcome(it->second, baseline_outcome(a));
      if (!err.empty()) throw std::runtime_error(err);
      requests_.push_back(req);
      bodies_.push_back(pd::render_job_result(a));
    }

    pd::ServerOptions so;
    so.socket_path = socket_path_;
    so.workers = 2;
    server_ = std::make_unique<pd::Server>(so);
    runner_ = std::thread([this] { server_->run(); });
    for (std::size_t c = 0; c < kClients; ++c)
      clients_.push_back(std::make_unique<pd::Client>(socket_path_));

    std::int64_t running = 0;
    for (std::size_t p = 0; p < requests_.size(); ++p)
      job(*clients_[0], p, r, ph, running);
    for (auto& client : clients_) job(*client, 0, r, ph, running);
  }

  void teardown() {
    clients_.clear();
    if (server_) server_->request_shutdown();
    if (runner_.joinable()) runner_.join();
    server_.reset();
    std::remove(socket_path_.c_str());
  }

  /// The client-side view of one timed job.
  struct JobTimes {
    std::size_t program = 0;
    bool completed = false;  // a Result arrived
    bool broken = false;     // the connection failed; stop this client
    std::int64_t submit_ns = 0, reply_ns = 0, running_ns = 0, result_ns = 0;
  };

  /// Both clients run closed loops until `seconds` pass; each draws its
  /// programs from its own seeded stream.
  Phase run(double seconds, std::uint64_t seed, RunReport& r,
            std::vector<JobTimes>* times) {
    struct PerClient {
      Phase ph;
      std::vector<JobTimes> times;
      RunReport log;
    };
    std::vector<PerClient> per(kClients);
    const double cpu0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline =
        t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        std::seed_seq ss{static_cast<std::uint32_t>(seed),
                         static_cast<std::uint32_t>(seed >> 32),
                         static_cast<std::uint32_t>(c)};
        std::mt19937_64 rng(ss);
        std::uniform_int_distribution<std::size_t> pick(
            0, requests_.size() - 1);
        PerClient& mine = per[c];
        std::int64_t running = 0;
        clients_[c]->on_event([&running](const pd::EventMsg& e) {
          if (e.kind == "state" && e.text == "running") running = now_ns();
        });
        // Between segments of jobs the client times the reference; each
        // segment's latencies are calibrated by the references around it.
        time_reference_ms();
        double before = time_reference_ms();
        std::size_t segment = 0;
        auto close_segment = [&] {
          const double after = time_reference_ms();
          mine.ph.reference_ms.push_back(after);
          const std::vector<double>& lat = mine.ph.latency_ms;
          for (; segment < lat.size(); ++segment)
            mine.ph.calibrated_ms.push_back(
                calibrate(lat[segment], before, after));
          before = after;
        };
        while (now_ns() < deadline) {
          const JobTimes jt =
              job(*clients_[c], pick(rng), mine.log, mine.ph, running);
          if (jt.broken) break;
          if (jt.completed) mine.times.push_back(jt);
          if (mine.ph.latency_ms.size() - segment >= kJobsPerReference)
            close_segment();
        }
        close_segment();
        clients_[c]->on_event(nullptr);
      });
    for (std::thread& t : threads) t.join();

    Phase ph;
    ph.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    ph.cpu_s = cpu_seconds() - cpu0;
    for (PerClient& pc : per) {
      ph.attempted += pc.ph.attempted;
      ph.failed += pc.ph.failed;
      ph.latency_ms.insert(ph.latency_ms.end(), pc.ph.latency_ms.begin(),
                           pc.ph.latency_ms.end());
      ph.calibrated_ms.insert(ph.calibrated_ms.end(),
                              pc.ph.calibrated_ms.begin(),
                              pc.ph.calibrated_ms.end());
      ph.reference_ms.insert(ph.reference_ms.end(), pc.ph.reference_ms.begin(),
                             pc.ph.reference_ms.end());
      for (std::string& e : pc.log.errors)
        if (r.errors.size() < kMaxLoggedErrors) r.errors.push_back(e);
      if (times) times->insert(times->end(), pc.times.begin(), pc.times.end());
    }
    return ph;
  }

  /// Replay jobs in-process on a warm private cache: the decomposed replica
  /// under spans (one "op" each), then daemon::run_job on the same request.
  Phase replay(double seconds, std::uint64_t seed, RunReport& r,
               std::uint64_t& next_op,
               std::map<std::uint64_t, StageCounters>& counters,
               std::vector<std::vector<double>>& run_job_ms) {
    auto cache = std::make_shared<pa::rosa::QueryCache>();
    for (std::size_t p = 0; p < requests_.size(); ++p)
      pv::analyze_program(specs_[p], options_for(p, cache));
    std::seed_seq ss{static_cast<std::uint32_t>(seed),
                     static_cast<std::uint32_t>(seed >> 32),
                     static_cast<std::uint32_t>(kClients)};
    std::mt19937_64 rng(ss);
    std::uniform_int_distribution<std::size_t> pick(0, requests_.size() - 1);
    run_job_ms.assign(requests_.size(), {});
    return timed_loop(seconds, [&](Phase& ph) {
      const std::size_t p = pick(rng);
      const std::uint64_t op = next_op++;
      ++ph.attempted;
      const int root = r.spans.begin("op", op);
      const pv::ProgramAnalysis a =
          analyze_traced(specs_[p], options_for(p, cache), r.spans, op, root);
      r.spans.end(root);
      ph.latency_ms.push_back(ms(r.spans.spans()[root].duration_ns()));
      counters[op] = counters_of(a);
      if (pd::render_job_result(a) != bodies_[p]) {
        record_failure(r, ph, a.program + ": replica differs from one-shot");
        return;
      }
      const int span = r.spans.begin("daemon.run_job", next_op++);
      const pd::JobOutcome out =
          pd::run_job(requests_[p], cache, nullptr, deadline_secs());
      r.spans.end(span);
      run_job_ms[p].push_back(ms(r.spans.spans()[span].duration_ns()));
      if (out.body != bodies_[p])
        record_failure(r, ph, a.program + ": run_job body differs");
    });
  }

 private:
  static double deadline_secs() { return pd::ServerOptions{}.default_deadline_secs; }

  pv::PipelineOptions options_for(std::size_t p,
                                  std::shared_ptr<pa::rosa::QueryCache> cache) {
    return pd::make_pipeline_options(requests_[p], std::move(cache), nullptr,
                                     deadline_secs());
  }

  /// Submit program `p` and wait for its Result; a mismatching body, a
  /// non-done state or a rejection is a failed op.
  JobTimes job(pd::Client& client, std::size_t p, RunReport& r, Phase& ph,
               std::int64_t& running) {
    JobTimes jt;
    jt.program = p;
    ++ph.attempted;
    try {
      running = 0;
      jt.submit_ns = now_ns();
      const pd::SubmitReply reply = client.submit(requests_[p]);
      jt.reply_ns = now_ns();
      if (!reply.accepted) {
        record_failure(r, ph, "job rejected: " + reply.reason);
        return jt;
      }
      const pd::ResultMsg res = client.wait_result(reply.job_id);
      jt.result_ns = now_ns();
      jt.completed = true;
      jt.running_ns = running ? running : jt.reply_ns;
      ph.latency_ms.push_back(ms(jt.result_ns - jt.submit_ns));
      if (res.state != "done" || res.body != bodies_[p])
        record_failure(r, ph,
                       std::string(kPrograms[p]) + ": daemon job " + res.state +
                           (res.body != bodies_[p] ? ", body differs" : ""));
    } catch (const std::exception& e) {
      record_failure(r, ph, e.what());
      jt.broken = true;
    }
    return jt;
  }

  const ExpectedFile& expected_;
  std::string socket_path_;
  std::vector<pd::JobRequest> requests_;
  std::vector<ProgramSpec> specs_;
  std::vector<std::string> bodies_;
  std::unique_ptr<pd::Server> server_;
  std::vector<std::unique_ptr<pd::Client>> clients_;
  std::thread runner_;
};

RunReport run_daemon(const RunOptions& o) {
  const ExpectedFile expected = parse_expected(read_file(o.expected_path));
  DaemonWorkload w(expected, o.work_dir + "/d" + std::to_string(getpid()) +
                                 ".sock");
  RunReport r;
  Phase warmup;
  constexpr double kPreferredTail = 99.0;

  if (!o.trace) {
    const double setup_s = timed_setups([&] { w.teardown(); },
                                        [&] { w.setup(r, warmup); });
    const double setup_rss_mb = peak_rss_mb();
    Phase ph = w.run(o.seconds, o.seed, r, nullptr);
    count_phase(r, warmup);
    count_phase(r, ph);
    r.metrics = end_to_end(r, setup_s, setup_rss_mb, ph, kPreferredTail);
    return r;
  }

  // Traced run, in thirds: untraced jobs (the overhead baseline), jobs with
  // client-side spans, then in-process replay for the stage breakdown and
  // the direct run_job cost.
  w.setup(r, warmup);
  Phase plain = w.run(o.seconds / 3, o.seed, r, nullptr);
  std::vector<DaemonWorkload::JobTimes> times;
  Phase traced = w.run(o.seconds / 3, o.seed + 1, r, &times);
  std::uint64_t next_op = 1;
  for (const DaemonWorkload::JobTimes& t : times) {
    const std::uint64_t op = next_op++;
    const int root = r.spans.add("daemon.job", op, -1, t.submit_ns, t.result_ns);
    r.spans.add("daemon.submit", op, root, t.submit_ns, t.reply_ns);
    r.spans.add("daemon.queue_wait", op, root, t.submit_ns, t.running_ns);
    r.spans.add("daemon.service", op, root, t.running_ns, t.result_ns);
  }
  std::map<std::uint64_t, StageCounters> counters;
  std::vector<std::vector<double>> run_job_ms;
  Phase replayed =
      w.replay(o.seconds / 3, o.seed, r, next_op, counters, run_job_ms);
  for (const Phase* p : {&warmup, &plain, &traced, &replayed})
    count_phase(r, *p);

  std::vector<double> submit, queue_wait, service, overhead, run_job_all;
  std::vector<double> run_job_median;
  for (const std::vector<double>& v : run_job_ms) {
    run_job_median.push_back(median(v));
    run_job_all.insert(run_job_all.end(), v.begin(), v.end());
  }
  for (const DaemonWorkload::JobTimes& t : times) {
    submit.push_back(ms(t.reply_ns - t.submit_ns));
    queue_wait.push_back(ms(t.running_ns - t.submit_ns));
    service.push_back(ms(t.result_ns - t.running_ns));
    overhead.push_back(ms(t.result_ns - t.submit_ns) -
                       run_job_median[t.program]);
  }
  const DaemonFigures d{median(submit), median(queue_wait), median(service),
                        median(run_job_all), median(overhead)};
  r.metrics = layer_metrics(
      r.spans, counters, d,
      median(traced.latency_ms) - median(plain.latency_ms));
  r.context.push_back({"untraced op_ms.p50", median(plain.latency_ms), "ms"});
  r.context.push_back({"traced op_ms.p50", median(traced.latency_ms), "ms"});
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"stock_cold",
                                                 "refactor_filters",
                                                 "daemon_warm"};
  return names;
}

RunReport run_workload(const RunOptions& o) {
  if (o.workload == "stock_cold")
    return run_batch(o,
                     {&pa::programs::make_passwd, &pa::programs::make_su,
                      &pa::programs::make_ping, &pa::programs::make_thttpd,
                      &pa::programs::make_sshd},
                     pv::FilterMode::Off, 90.0);
  if (o.workload == "refactor_filters")
    return run_batch(o,
                     {&pa::programs::make_passwd_refactored,
                      &pa::programs::make_su_refactored},
                     pv::FilterMode::Report, 95.0);
  if (o.workload == "daemon_warm") return run_daemon(o);
  throw std::runtime_error("unknown workload '" + o.workload + "'");
}

}  // namespace pabench

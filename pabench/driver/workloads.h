// The benchmark's workloads: stock_cold, refactor_filters and daemon_warm.
// Each is a closed loop whose op order comes from the seed; see
// pabench/README.md for what each one stresses and why.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/spans.h"

namespace pabench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;
  /// Scratch directory for the daemon's socket (relative paths keep it
  /// under the Unix socket path limit).
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// in BENCHMARK.json order.
  std::vector<Metric> metrics;
  /// Context printed with the metrics but not part of the JSON result:
  /// failed_ratio, the tail percentile used, sample counts.
  std::vector<Metric> context;
  /// The first few correctness failures, for the log.
  std::vector<std::string> errors;
  /// Every span of the traced run (empty when untraced).
  SpanRecorder spans;
};

const std::vector<std::string>& workload_names();

/// Run one workload for opts.seconds of measured time. Throws
/// std::runtime_error for an unknown workload or an unreadable expected file.
RunReport run_workload(const RunOptions& opts);

}  // namespace pabench

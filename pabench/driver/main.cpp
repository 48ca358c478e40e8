// pa_bench: runs one benchmark workload and prints its metrics.
//
//   pa_bench --workload <stock_cold|refactor_filters|daemon_warm>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--expected pabench/expected.txt] [--out-dir <dir>]
//
// Prints a human-readable table, then as the last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The same
// figures plus the seed, tail percentile and hardware threads go to
// <out-dir>/<workload>-seed<n>-trace<t>.json; a traced run also writes every
// span to <out-dir>/spans-<workload>-seed<n>.jsonl. Exits 2 on bad usage and
// 1 when the workload cannot be set up.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "driver/workloads.h"

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const std::vector<pabench::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  return out + "}";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <stock_cold|refactor_filters|daemon_warm> "
               "--seed <n> --seconds <s> --trace <0|1> [--expected FILE] "
               "[--out-dir DIR]\n",
               argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  auto res = std::from_chars(s, end, out);
  return res.ec == std::errc() && res.ptr == end && end != s;
}

}  // namespace

int main(int argc, char** argv) {
  pabench::RunOptions o;
  o.expected_path = "pabench/expected.txt";
  std::string out_dir = ".bench_build/results";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(val, n)) return usage(argv[0]);
      o.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(val, n) || n == 0 || n > 3600) return usage(argv[0]);
      o.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(val, "0") && std::strcmp(val, "1")) return usage(argv[0]);
      o.trace = val[0] == '1';
      have_trace = true;
    } else if (flag == "--expected") {
      o.expected_path = val;
    } else if (flag == "--out-dir") {
      out_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage(argv[0]);

  pabench::RunReport r;
  try {
    std::filesystem::create_directories(out_dir);
    o.work_dir = out_dir;
    r = pabench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pa_bench: %s\n", e.what());
    return 1;
  }

  const std::string tag = o.workload + "-seed" + std::to_string(o.seed);
  const bool correct = r.failed == 0;
  std::printf("workload %s seed %llu trace %d: %llu ops, %llu failed\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const pabench::Metric& m : r.metrics)
    std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const pabench::Metric& m : r.context)
    std::printf("  %-24s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& e : r.errors)
    std::printf("  FAILED: %s\n", e.c_str());

  std::ofstream(out_dir + "/" + tag + "-trace" + (o.trace ? "1" : "0") +
                ".json")
      << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"seconds\": " << num(o.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": " << metrics_json(r.metrics)
      << ", \"context\": " << metrics_json(r.context) << "}\n";
  if (o.trace)
    std::ofstream(out_dir + "/spans-" + tag + ".jsonl")
        << pabench::spans_to_jsonl(r.spans.spans());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(r.metrics).c_str());
  return 0;
}

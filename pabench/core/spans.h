// In-memory span recording for the benchmark's traced run.
//
// The benchmark wraps each public call into a library layer in a span (name,
// start, end, parent, op id). Spans stay in memory while the workload runs
// and are written out once at exit, so recording costs two clock reads and a
// vector append. A span's self time is its duration minus the part of its
// interval that its children cover; children may nest or overlap (the daemon
// workload's submit and queue-wait spans overlap), so the covered part is the
// length of the union of the child intervals, clipped to the parent.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pabench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

struct Span {
  std::string name;  // "<layer>" or "<layer>.<stage>", e.g. "rosa"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        // index of the parent span in the same recorder
  std::uint64_t op = 0;   // the op (batch pass or daemon job) it belongs to

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Single-threaded span store.
class SpanRecorder {
 public:
  /// Open a span starting now; returns its id (the parent of nested spans).
  int begin(std::string name, std::uint64_t op, int parent = -1);
  void end(int id);
  /// Record a span whose endpoints were taken elsewhere.
  int add(std::string name, std::uint64_t op, int parent,
          std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t op,
             int parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& rec_;
  int id_;
};

/// Self time of every span, parallel to `spans`: duration minus the length
/// of the union of its children's intervals clipped to its own.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// One JSON object per line: op, id, parent, name, start_ns, end_ns,
/// self_ns. Start times are relative to the earliest span.
std::string spans_to_jsonl(const std::vector<Span>& spans);

}  // namespace pabench

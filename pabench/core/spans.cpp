#include "core/spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace pabench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::begin(std::string name, std::uint64_t op, int parent) {
  const std::int64_t t = now_ns();
  return add(std::move(name), op, parent, t, t);
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int SpanRecorder::add(std::string name, std::uint64_t op, int parent,
                      std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t op,
                       int parent)
    : rec_(rec), id_(rec.begin(std::move(name), op, parent)) {}

ScopedSpan::~ScopedSpan() { rec_.end(id_); }

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (a >= b) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    out[i] = s.duration_ns() - covered;
  }
  return out;
}

std::string spans_to_jsonl(const std::vector<Span>& spans) {
  std::int64_t t0 = 0;
  if (!spans.empty()) {
    t0 = spans.front().start_ns;
    for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  }
  const std::vector<std::int64_t> self = self_times(spans);
  std::string out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "{\"op\":" + std::to_string(s.op) + ",\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"name\":\"" +
           s.name + "\",\"start_ns\":" + std::to_string(s.start_ns - t0) +
           ",\"end_ns\":" + std::to_string(s.end_ns - t0) +
           ",\"self_ns\":" + std::to_string(self[i]) + "}\n";
  }
  return out;
}

}  // namespace pabench

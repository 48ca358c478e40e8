#include "core/reference.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

namespace pabench {
namespace {

// Keep the result observable so the work cannot be dropped. Client threads
// of daemon_warm time the reference concurrently.
std::atomic<std::uint64_t> g_sink{0};

struct Step {
  virtual ~Step() = default;
  virtual std::uint64_t apply(std::uint64_t x) const = 0;
};

template <int K>
struct StepK final : Step {
  std::uint64_t apply(std::uint64_t x) const override {
    return x * (2 * K + 1) + K;
  }
};

std::vector<std::unique_ptr<Step>> make_steps() {
  std::vector<std::unique_ptr<Step>> v;
  v.push_back(std::make_unique<StepK<0>>());
  v.push_back(std::make_unique<StepK<1>>());
  v.push_back(std::make_unique<StepK<2>>());
  v.push_back(std::make_unique<StepK<3>>());
  v.push_back(std::make_unique<StepK<4>>());
  v.push_back(std::make_unique<StepK<5>>());
  v.push_back(std::make_unique<StepK<6>>());
  v.push_back(std::make_unique<StepK<7>>());
  return v;
}

// String formatting, regex matching, ordered-map churn with string keys,
// hashing into an unordered set, virtual calls through std::function, and a
// periodic sort: the mix of library code the analyses spend their time in.
std::uint64_t reference_work() {
  static const std::regex re("([a-z]+)_(\\d+)=(v|x|T)");
  static const std::vector<std::unique_ptr<Step>> steps = make_steps();
  std::uint64_t acc = 0x2545F4914F6CDD1DULL;
  std::map<std::string, std::uint64_t> table;
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::string> names;
  const std::function<std::uint64_t(std::uint64_t)> step =
      [](std::uint64_t x) { return steps[x & 7]->apply(x); };
  for (int i = 0; i < 2000; ++i) {
    std::ostringstream os;
    os << "epoch_" << (acc % 977) << '=' << ((acc & 1) ? 'v' : 'T');
    const std::string key = os.str();
    std::smatch m;
    if (std::regex_search(key, m, re)) acc += m[2].length();
    table[key] += step(acc);
    if (table.size() > 300) table.erase(table.begin());
    for (int j = 0; j < 8; ++j)
      seen.insert((acc >> j) * 0x9E3779B97F4A7C15ULL);
    if (seen.size() > 20000) seen.clear();
    if (i % 50 == 0) {
      names.clear();
      for (const auto& entry : table) names.push_back(entry.first);
      std::sort(names.begin(), names.end(), std::greater<>());
      acc += names.size();
    }
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return acc + table.size() + seen.size();
}

}  // namespace

double time_reference_ms() {
  const auto t0 = std::chrono::steady_clock::now();
  g_sink.fetch_add(reference_work(), std::memory_order_relaxed);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double calibrate(double took, double ref_before_ms, double ref_after_ms) {
  if (!(ref_before_ms > 0.0) || !(ref_after_ms > 0.0)) return took;
  return took * kReferenceNominalMs / ((ref_before_ms + ref_after_ms) / 2.0);
}

}  // namespace pabench

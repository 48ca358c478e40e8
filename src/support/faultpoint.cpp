#include "support/faultpoint.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>

#include "support/str.h"

namespace pa::support {
namespace faultpoint {
namespace {

/// The canonical compiled-in points (kept in sync with the PA_FAULTPOINT
/// sites; the soak test fails if one is registered but never reachable from
/// the pipeline). Ad-hoc names can be armed and hit but are never listed.
constexpr const char* kCompiledInPoints[] = {
    "loader.load_program",  // privanalyzer/loader.cpp: text -> ProgramSpec
    "verifier.verify",      // ir/verifier.cpp: verify_or_throw entry
    "world.make",           // programs/world.cpp: both world factories
    "thread_pool.task",     // support/thread_pool.cpp: task boundary
    "rosa.search",          // rosa/search.cpp: search entry, per member
    "rosa.prove",           // rosa/prove.cpp: prover entry, per world
    "rosa.cache_load",      // privanalyzer/pipeline.cpp: --rosa-cache load
    "rosa.cache_store",     // rosa/cache.cpp: persistent-file I/O attempt
                            // (recoverable: one fault = one retried attempt)
    "daemon.accept",        // support/socket.cpp: listener accept path
    "daemon.read",          // support/socket.cpp: connection frame read
    "daemon.write",         // support/socket.cpp: connection frame write
};

struct PointState {
  bool is_armed = false;
  std::uint64_t fire_on_hit = 0;  // 1-based, counted from arming
  std::uint64_t hits = 0;         // hits since arming
  bool compiled_in = false;       // listed by registered_points()
};

struct Registry {
  std::mutex mu;
  std::map<std::string, PointState> points;  // sorted => deterministic order
  Registry() {
    for (const char* p : kCompiledInPoints)
      points.emplace(p, PointState{false, 0, 0, true});
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Fast-path gate: number of currently armed points. hit() returns after one
/// relaxed load when zero, so inert points cost nothing measurable even in
/// the ROSA search entry.
std::atomic<int> g_armed_count{0};

Stage stage_from_point(const std::string& name) {
  if (name.starts_with("loader.")) return Stage::Loader;
  if (name.starts_with("verifier.")) return Stage::Verifier;
  if (name.starts_with("world.")) return Stage::World;
  if (name.starts_with("rosa.")) return Stage::Rosa;
  if (name.starts_with("thread_pool.")) return Stage::Pipeline;
  if (name.starts_with("daemon.")) return Stage::Daemon;
  return Stage::Unknown;
}

/// Arm from PA_FAULTPOINTS once before main() so CLI users need no code.
/// Malformed entries are ignored here (throwing during static init would
/// terminate); explicit arm_from_env() calls surface them as StageErrors.
const int g_env_armed = [] {
  try {
    return arm_from_env();
  } catch (const Error&) {
    return 0;
  }
}();

}  // namespace

void hit(const char* name) {
  if (g_armed_count.load(std::memory_order_relaxed) == 0) return;
  Registry& r = registry();
  std::unique_lock<std::mutex> lock(r.mu);
  auto it = r.points.find(name);
  if (it == r.points.end() || !it->second.is_armed) return;
  PointState& st = it->second;
  if (++st.hits != st.fire_on_hit) return;
  st = PointState{false, 0, 0, st.compiled_in};  // single-shot: firing disarms
  g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  lock.unlock();
  throw FaultInjected(name);
}

void arm(const std::string& name, std::uint64_t nth) {
  if (nth == 0) nth = 1;
  Registry& r = registry();
  std::unique_lock<std::mutex> lock(r.mu);
  PointState& st = r.points[name];  // ad-hoc names armable too
  if (!st.is_armed) g_armed_count.fetch_add(1, std::memory_order_relaxed);
  st = PointState{true, nth, 0, st.compiled_in};
}

void disarm(const std::string& name) {
  Registry& r = registry();
  std::unique_lock<std::mutex> lock(r.mu);
  auto it = r.points.find(name);
  if (it == r.points.end() || !it->second.is_armed) return;
  it->second = PointState{false, 0, 0, it->second.compiled_in};
  g_armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  Registry& r = registry();
  std::unique_lock<std::mutex> lock(r.mu);
  for (auto& [name, st] : r.points) {
    if (st.is_armed) g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    st = PointState{false, 0, 0, st.compiled_in};
  }
}

bool armed(const std::string& name) {
  Registry& r = registry();
  std::unique_lock<std::mutex> lock(r.mu);
  auto it = r.points.find(name);
  return it != r.points.end() && it->second.is_armed;
}

std::vector<std::string> registered_points() {
  Registry& r = registry();
  std::unique_lock<std::mutex> lock(r.mu);
  std::vector<std::string> out;
  out.reserve(r.points.size());
  for (const auto& [name, st] : r.points)
    if (st.compiled_in) out.push_back(name);
  return out;
}

int arm_from_env() {
  const char* env = std::getenv("PA_FAULTPOINTS");
  if (!env || !*env) return 0;
  int count = 0;
  for (const std::string& raw : str::split(env, ',')) {
    std::string_view entry = str::trim(raw);
    if (entry.empty()) continue;
    std::uint64_t nth = 1;
    std::string name(entry);
    if (auto colon = entry.rfind(':'); colon != std::string_view::npos) {
      name = std::string(entry.substr(0, colon));
      std::string n(entry.substr(colon + 1));
      try {
        nth = std::stoull(n);
      } catch (const std::exception&) {
        fail_stage(Stage::Pipeline, DiagCode::BadFieldValue, "",
                   str::cat("PA_FAULTPOINTS: bad hit count '", n, "' in '",
                            std::string(entry), "'"));
      }
    }
    arm(name, nth);
    ++count;
  }
  return count;
}

}  // namespace faultpoint

FaultInjected::FaultInjected(const std::string& point)
    : StageError(Diagnostic{
          faultpoint::stage_from_point(point), Severity::Error,
          DiagCode::FaultInjected, "",
          str::cat("injected fault at point '", point, "'")}),
      point_(point) {}

}  // namespace pa::support

// Ablation benchmarks for ROSA's design choices (§VIII's claim that search
// time is driven by state-space size), built on google-benchmark.
//
// The rich-but-impossible workhorse is WriteDevMem under CAP_SETGID: the
// attacker can permute gids through every group object (large reachable
// space) but /dev/mem's group has no write bit, so the goal is unreachable
// and the search must exhaust everything. The possible counterpart is
// ReadDevMem under CAP_SETUID, which stops at the first witness.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "attacks/scenario.h"
#include "bench_util.h"
#include "privanalyzer/efficacy.h"
#include "programs/world.h"
#include "rosa/query.h"

using namespace pa;
using caps::Capability;

namespace {

/// The cold Table-III query matrix (5 programs x epochs x 4 attacks = 96
/// queries), the workload the fused multi-goal engine was built for: the
/// four attacks of an epoch share one masked-union world, so run_queries
/// fans them into a single exploration each.
std::vector<rosa::Query> table3_matrix() {
  privanalyzer::PipelineOptions chrono_only;
  chrono_only.run_rosa = false;
  const auto analyses = privanalyzer::analyze_baseline(chrono_only);
  const auto specs = programs::all_baseline_programs();
  std::vector<rosa::Query> queries;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const auto syscalls = specs[p].syscalls_used();
    for (const chronopriv::EpochRow& row : analyses[p].chrono.rows) {
      attacks::ScenarioInput in = attacks::scenario_from_epoch(
          row, syscalls, specs[p].scenario_extra_users,
          specs[p].scenario_extra_groups);
      for (const attacks::AttackInfo& a : attacks::modeled_attacks())
        queries.push_back(attacks::build_attack_query(a.id, in));
    }
  }
  return queries;
}

/// The fixed matrix search config (mirrors the differential suites).
rosa::SearchLimits matrix_limits() {
  rosa::SearchLimits limits;
  limits.max_states = 1'000'000;
  limits.check_hashes = true;
  return limits;
}

/// The unfused reference: one standalone search() per query.
std::vector<rosa::SearchResult> standalone_matrix(
    const std::vector<rosa::Query>& queries, const rosa::SearchLimits& limits) {
  std::vector<rosa::SearchResult> out;
  out.reserve(queries.size());
  for (const rosa::Query& q : queries) out.push_back(rosa::search(q, limits));
  return out;
}

rosa::Query make_query(attacks::AttackId attack, caps::CapSet permitted,
                       int extra_ids, int n_syscalls = 7) {
  attacks::ScenarioInput in;
  in.permitted = permitted;
  in.creds = caps::Credentials::of_user(1000, 1000);
  std::vector<std::string> all = {"setresgid", "open",   "chmod", "chown",
                                  "setgid",    "setuid", "unlink"};
  all.resize(static_cast<std::size_t>(n_syscalls));
  in.syscalls = all;
  for (int i = 0; i < extra_ids; ++i) {
    in.extra_users.push_back(2000 + i);
    in.extra_groups.push_back(3000 + i);
  }
  return attacks::build_attack_query(attack, in);
}

rosa::Query impossible_query(int extra_ids, int n_syscalls = 7) {
  return make_query(attacks::AttackId::WriteDevMem,
                    {Capability::Setgid}, extra_ids, n_syscalls);
}

void report(benchmark::State& state, const rosa::SearchResult& r) {
  state.counters["states"] = static_cast<double>(r.states_explored());
  state.counters["transitions"] = static_cast<double>(r.transitions());
  state.counters["bytes_per_state"] = r.stats.bytes_per_state();
}

}  // namespace

// Search cost vs. the size of the wildcard id pools — the mechanism that
// makes the refactored programs' searches slower (Figs. 10-11).
static void BM_PoolScaling(benchmark::State& state) {
  rosa::Query q = impossible_query(static_cast<int>(state.range(0)));
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_PoolScaling)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Search cost vs. the number of one-shot messages (bounded-model depth).
static void BM_MessageCountScaling(benchmark::State& state) {
  rosa::Query q = impossible_query(2, static_cast<int>(state.range(0)));
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_MessageCountScaling)->Arg(1)->Arg(3)->Arg(5)->Arg(7);

// The paper's §VIII observation: reachable goals verify fast (first-witness
// exit), impossible ones pay for the whole space.
static void BM_PossibleAttack(benchmark::State& state) {
  rosa::Query q = make_query(attacks::AttackId::ReadDevMem,
                             {Capability::Setuid}, 2);
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.verdict);
  }
  report(state, last);
  if (last.verdict != rosa::Verdict::Reachable)
    state.SkipWithError("expected reachable");
}
BENCHMARK(BM_PossibleAttack);

static void BM_ImpossibleAttack(benchmark::State& state) {
  rosa::Query q = impossible_query(2);
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.verdict);
  }
  report(state, last);
  if (last.verdict != rosa::Verdict::Unreachable)
    state.SkipWithError("expected unreachable");
}
BENCHMARK(BM_ImpossibleAttack);

// DESIGN.md decision 2: canonical-state deduplication. Off, commuting
// message orders multiply instead of collapsing.
static void BM_DedupOn(benchmark::State& state) {
  rosa::Query q = impossible_query(1);
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_DedupOn);

static void BM_DedupOff(benchmark::State& state) {
  rosa::Query q = impossible_query(1);
  rosa::SearchLimits limits;
  limits.no_dedup = true;
  limits.max_states = 5'000'000;  // safety net: the space explodes
  rosa::SearchResult last;
  for (auto _ : state) {
    last = rosa::search(q, limits);
    benchmark::DoNotOptimize(last.stats.states);
  }
  report(state, last);
}
BENCHMARK(BM_DedupOff);

// Fused vs unfused cold matrix: Arg(1) runs the batch through run_queries,
// which groups each epoch's four attacks into one multi-goal exploration;
// Arg(0) is the reference, one search() per query for all 96. Results are
// bit-identical (rosa_fused_diff_test); the counters show what the fusion
// shares.
static void BM_FusedMatrix(benchmark::State& state) {
  const std::vector<rosa::Query> queries = table3_matrix();
  const rosa::SearchLimits limits = matrix_limits();
  const bool fused = state.range(0) != 0;
  std::vector<rosa::SearchResult> last;
  for (auto _ : state) {
    last = fused ? rosa::run_queries(queries, limits)
                 : standalone_matrix(queries, limits);
    benchmark::DoNotOptimize(last.data());
  }
  std::size_t member_states = 0, world_states = 0, saved = 0;
  for (const rosa::SearchResult& r : last) {
    member_states += r.stats.states;
    world_states += r.stats.fused_world_states;
    saved += r.stats.fused_searches_saved;
  }
  state.counters["member_states"] = static_cast<double>(member_states);
  state.counters["world_states"] = static_cast<double>(world_states);
  state.counters["searches_saved"] = static_cast<double>(saved);
  state.counters["explorations"] =
      static_cast<double>(queries.size() - saved);
}
BENCHMARK(BM_FusedMatrix)->Arg(0)->Arg(1);

namespace {

/// The headline throughput/compactness measurement behind BENCH_rosa.json:
/// best-of-3 wall time for the impossible-attack space at two pool sizes,
/// reported as states/sec and arena bytes/state. These two workloads are
/// the fixed reference configs that perf changes are judged against.
void write_perf_json(const std::string& path) {
  std::vector<std::pair<std::string, double>> metrics;
  for (int extra : {6, 8}) {
    const rosa::Query q = impossible_query(extra);
    rosa::SearchResult last;
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      last = rosa::search(q);
      best = std::min(
          best, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
    }
    const std::string prefix = "pool_extra" + std::to_string(extra) + "_";
    metrics.emplace_back(prefix + "states",
                         static_cast<double>(last.stats.states));
    metrics.emplace_back(prefix + "seconds", best);
    metrics.emplace_back(prefix + "states_per_sec",
                         static_cast<double>(last.stats.states) / best);
    metrics.emplace_back(prefix + "bytes_per_state",
                         last.stats.bytes_per_state());
    // Representation-only footprint (sizeof(State) + per-state heap),
    // excluding search bookkeeping — directly comparable to the seed
    // build's ~760 B/state std::set-based representation.
    metrics.emplace_back(
        prefix + "state_bytes_per_state",
        last.stats.states ? static_cast<double>(last.stats.state_bytes) /
                                static_cast<double>(last.stats.states)
                          : 0.0);
  }
  // Fused multi-goal search on the cold Table-III matrix. Per-query
  // results are pinned bit-identical to standalone runs, so the states
  // metric is structural: the shared exploration costs exactly the union
  // of the members' decisive prefixes. Explorations measure searches
  // actually launched (96 queries -> ~24 fused groups).
  {
    const std::vector<rosa::Query> queries = table3_matrix();
    const rosa::SearchLimits limits = matrix_limits();
    std::vector<rosa::SearchResult> fused, unfused;
    double fused_best = 1e100, unfused_best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      fused = rosa::run_queries(queries, limits);
      fused_best = std::min(
          fused_best, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
      t0 = std::chrono::steady_clock::now();
      unfused = standalone_matrix(queries, limits);
      unfused_best = std::min(
          unfused_best, std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    std::size_t member_states = 0, world_states = 0, saved = 0;
    for (const rosa::SearchResult& r : fused) {
      member_states += r.stats.states;
      world_states += r.stats.fused_world_states;
      saved += r.stats.fused_searches_saved;
    }
    const double n = static_cast<double>(queries.size());
    metrics.emplace_back("fused_matrix_queries", n);
    metrics.emplace_back("fused_searches_saved",
                         static_cast<double>(saved));
    metrics.emplace_back("fused_matrix_explorations",
                         n - static_cast<double>(saved));
    metrics.emplace_back("fused_exploration_reduction",
                         n / (n - static_cast<double>(saved)));
    metrics.emplace_back("fused_member_states",
                         static_cast<double>(member_states));
    metrics.emplace_back("fused_world_states",
                         static_cast<double>(world_states));
    metrics.emplace_back(
        "fused_states_reduction",
        world_states ? static_cast<double>(member_states) /
                           static_cast<double>(world_states)
                     : 0.0);
    metrics.emplace_back("fused_matrix_seconds", fused_best);
    metrics.emplace_back("unfused_matrix_seconds", unfused_best);
  }
  if (!pa::bench::write_json_metrics(path, metrics)) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = pa::bench::take_json_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty()) write_perf_json(json_path);
  return 0;
}

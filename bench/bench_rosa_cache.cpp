// The content-addressed verdict cache (rosa/cache.h) on the Table-3 query
// set: build the full (epoch × attack) matrix for the five baseline
// programs, then measure
//
//   1. cold, cache on  — every distinct fingerprint searched once; the
//      duplicate epochs in the matrix already collapse on the first pass
//      (misses < queries), and the overhead vs. the uncached engine is the
//      price of fingerprinting;
//   2. warm, in-memory — a repeat batch served entirely from the cache
//      (hit rate 100%); this is the CLI's shared-instance batch case;
//   3. warm, persistent — a fresh cache loads the saved --rosa-cache file
//      and answers the whole matrix without searching, modeling a repeat
//      run of the tool. Expected >= 5x over the cold run (the warm pass
//      does no state-space exploration at all).
//
// Verdicts are bit-identical in all configurations (the differential tests
// in tests/rosa_cache_test.cpp enforce this); the bench only reports cost.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "privanalyzer/efficacy.h"
#include "rosa/cache.h"
#include "support/str.h"

using namespace pa;

namespace {

double run_once(const std::vector<rosa::Query>& queries,
                const rosa::SearchLimits& limits, rosa::QueryCache* cache,
                rosa::SearchStats* stats_out = nullptr) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<rosa::SearchResult> results =
      rosa::run_queries(queries, limits, cache);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (stats_out) {
    *stats_out = {};
    for (const rosa::SearchResult& r : results) stats_out->merge(r.stats);
  }
  return wall;
}

void report(const char* label, double wall, double baseline) {
  std::cout << "  " << str::pad_right(label, 22)
            << str::pad_left(str::cat(str::fixed(wall * 1000, 2), " ms"), 14)
            << str::pad_left(str::cat(str::fixed(baseline / wall, 1), "x"), 10)
            << "\n";
}

}  // namespace

int main() {
  // Stage 1+2 (AutoPriv + ChronoPriv) once; this bench measures the ROSA
  // stage, which dominates the pipeline.
  privanalyzer::PipelineOptions chrono_only;
  chrono_only.run_rosa = false;
  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(chrono_only);
  std::vector<programs::ProgramSpec> specs = programs::all_baseline_programs();

  rosa::SearchLimits limits;
  limits.max_states = 1'000'000;

  std::vector<rosa::Query> queries;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const auto syscalls = specs[p].syscalls_used();
    for (const chronopriv::EpochRow& row : analyses[p].chrono.rows) {
      attacks::ScenarioInput in = attacks::scenario_from_epoch(
          row, syscalls, specs[p].scenario_extra_users,
          specs[p].scenario_extra_groups);
      // Paper-scale wildcard pools (the Figs. 10-11 methodology) so the
      // searches are substantial enough for caching to matter.
      for (int i = 0; i < 24; ++i) {
        in.extra_users.push_back(5000 + i);
        in.extra_groups.push_back(6000 + i);
      }
      for (const attacks::AttackInfo& a : attacks::modeled_attacks())
        queries.push_back(attacks::build_attack_query(a.id, in));
    }
  }
  std::cout << "Table-3 query set: " << queries.size()
            << " queries (epoch x attack over 5 baseline programs)\n\n";

  // Warm-up + uncached baseline.
  run_once(queries, limits, nullptr);
  const double uncached = run_once(queries, limits, nullptr);

  rosa::QueryCache cache;
  rosa::SearchStats cold_stats;
  const double cold = run_once(queries, limits, &cache, &cold_stats);
  rosa::SearchStats warm_stats;
  const double warm = run_once(queries, limits, &cache, &warm_stats);

  // Persistent: a fresh cache in a "new process" loads the saved file.
  const std::string path = "bench_rosa_cache.tmp.cache";
  std::string warn;
  if (!cache.save_file(path, &warn)) {
    std::cerr << "save failed: " << warn << "\n";
    return 1;
  }
  rosa::QueryCache fresh;
  if (!fresh.load_file(path, &warn)) {
    std::cerr << "load failed: " << warn << "\n";
    return 1;
  }
  rosa::SearchStats persist_stats;
  const double persist = run_once(queries, limits, &fresh, &persist_stats);
  std::remove(path.c_str());

  std::cout << "  " << str::pad_right("configuration", 22)
            << str::pad_left("wall", 14) << str::pad_left("speedup", 10)
            << "\n";
  report("uncached", uncached, uncached);
  report("cold, cache on", cold, uncached);
  report("warm, in-memory", warm, uncached);
  report("warm, persistent", persist, uncached);

  std::cout << "\n  cold pass:  " << cold_stats.cache_misses
            << " searches for " << queries.size() << " queries ("
            << cold_stats.cache_hits
            << " duplicate cells served from memory)\n";
  std::cout << "  warm pass:  " << warm_stats.cache_hits << "/"
            << queries.size() << " hits, " << warm_stats.cache_misses
            << " misses\n";
  std::cout << "  persistent: " << persist_stats.cache_hits << "/"
            << queries.size() << " hits after loading "
            << fresh.totals().loaded << " entries\n";

  bool ok = true;
  if (warm_stats.cache_hits == 0) {
    std::cout << "\n  FAIL: warm in-memory pass recorded no cache hits\n";
    ok = false;
  }
  if (persist / cold > 0.2) {
    std::cout << "\n  NOTE: warm persistent run was only "
              << str::fixed(cold / persist, 1)
              << "x faster than cold (expected >= 5x on substantial "
                 "query sets)\n";
  }
  return ok ? 0 : 1;
}

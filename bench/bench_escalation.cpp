// Adaptive budget escalation on the Table-3 query set: start every query at
// a deliberately starved state budget and sweep the escalation ladder depth,
// reporting how many presumed-invulnerable (ResourceLimit) cells each extra
// doubling round converts into definite verdicts and what the retries cost
// in re-explored states versus a single-shot generous budget. This is the
// trade the pipeline's `--escalate-rounds` flag buys: a small budget for the
// easy majority, doubling only where the search actually starves.
#include <chrono>
#include <iostream>

#include "privanalyzer/efficacy.h"
#include "support/str.h"

using namespace pa;

namespace {

struct Sweep {
  double wall = 0.0;
  std::size_t presumed = 0;   // ResourceLimit verdicts after the ladder
  std::size_t escalated = 0;  // queries that needed >= 1 retry
  rosa::SearchStats stats;    // work accumulated across every attempt
};

Sweep run_once(const std::vector<rosa::Query>& queries,
               const rosa::SearchLimits& limits, unsigned rounds) {
  Sweep s;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<rosa::SearchResult> results = rosa::run_queries(
      queries, limits, rosa::EscalationPolicy{rounds, 2.0});
  s.wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  for (const rosa::SearchResult& r : results) {
    if (r.verdict == rosa::Verdict::ResourceLimit) ++s.presumed;
    if (r.stats.escalations > 0) ++s.escalated;
    s.stats.merge(r.stats);
  }
  return s;
}

}  // namespace

int main() {
  privanalyzer::PipelineOptions chrono_only;
  chrono_only.run_rosa = false;
  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(chrono_only);
  std::vector<programs::ProgramSpec> specs = programs::all_baseline_programs();

  std::vector<rosa::Query> queries;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const auto syscalls = specs[p].syscalls_used();
    for (const chronopriv::EpochRow& row : analyses[p].chrono.rows) {
      attacks::ScenarioInput in = attacks::scenario_from_epoch(
          row, syscalls, specs[p].scenario_extra_users,
          specs[p].scenario_extra_groups);
      // Widen the wildcard pools (the Figs. 10-11 methodology) so a starved
      // base budget is meaningfully starved, not merely one doubling short.
      for (int i = 0; i < 24; ++i) {
        in.extra_users.push_back(5000 + i);
        in.extra_groups.push_back(6000 + i);
      }
      for (const attacks::AttackInfo& a : attacks::modeled_attacks())
        queries.push_back(attacks::build_attack_query(a.id, in));
    }
  }

  rosa::SearchLimits starved;
  starved.max_states = 64;
  std::cout << "Table-3 query set, base budget max_states="
            << starved.max_states << " (deliberately starved), "
            << queries.size() << " queries\n\n";
  std::cout << "  " << str::pad_right("rounds", 9)
            << str::pad_left("presumed", 10) << str::pad_left("escalated", 11)
            << str::pad_left("states", 12) << str::pad_left("wall", 12)
            << "\n";
  for (unsigned rounds : {0u, 2u, 4u, 6u, 8u, 10u, 12u}) {
    const Sweep s = run_once(queries, starved, rounds);
    std::cout << "  " << str::pad_right(std::to_string(rounds), 9)
              << str::pad_left(std::to_string(s.presumed), 10)
              << str::pad_left(std::to_string(s.escalated), 11)
              << str::pad_left(std::to_string(s.stats.states), 12)
              << str::pad_left(str::cat(str::fixed(s.wall * 1000, 1), " ms"),
                               12)
              << "\n";
  }

  // The comparison point: no ladder, every query gets the generous budget
  // the deepest ladder rung could reach (64 * 2^12).
  rosa::SearchLimits generous;
  generous.max_states = starved.max_states << 12;
  const Sweep flat = run_once(queries, generous, 0);
  std::cout << "\n  single-shot max_states=" << generous.max_states << ": "
            << flat.presumed << " presumed, " << flat.stats.states
            << " states, " << str::fixed(flat.wall * 1000, 1) << " ms\n"
            << "  (the ladder's re-explored-state overhead is the gap in the "
               "states column;\n  its win is paying the big budget only where "
               "the search starved)\n";
  return 0;
}

// Regenerates the paper's Table V: the refactored passwd and su through the
// same pipeline. The refactored programs' special users enlarge ROSA's
// wildcard pools, so some impossible-attack searches exceed the resource
// budget — rendered T, the analogue of the paper's hourglass (their Maude
// searches hit a 5-hour limit; §VII-D argues limit-hitting searches are
// almost certainly invulnerable epochs).
#include <iostream>

#include "privanalyzer/export.h"
#include "privanalyzer/render.h"
#include "support/str.h"

using namespace pa;

int main() {
  privanalyzer::PipelineOptions opts;
  opts.rosa_limits.max_states = 1'000'000;

  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_refactored(opts);

  std::cout << privanalyzer::render_efficacy_table(
      analyses,
      "Table V: Refactored Programs (V vulnerable / x safe / T resource "
      "limit == paper's hourglass)");

  std::cout << "\nHeadline numbers (paper: refactored passwd invulnerable "
               "for ~96%, refactored su for ~99%\ncounting limit-hit epochs "
               "as presumed-safe):\n";
  for (const privanalyzer::ProgramAnalysis& a : analyses) {
    privanalyzer::ExposureSummary s = privanalyzer::exposure_of(a);
    std::cout << "  " << a.program << ": any-attack "
              << str::percent(s.any_attack) << " of execution ("
              << str::percent(1.0 - s.any_attack) << " safe-or-presumed)\n";
  }

  std::cout << "\nCells the may-reach prover decided without a search:\n";
  for (const privanalyzer::ProgramAnalysis& a : analyses)
    std::cout << "  " << a.program << ": " << a.search_stats().proved
              << " proved\n";

  // The paper's hourglass cells: its Maude searches hit a 5-hour wall on
  // the largest impossible-attack spaces (refactored su, CAP_SETGID /
  // empty epochs, attacks 1-2). The explicit-state checker exhausts those
  // same spaces outright — the T verdicts above never trigger at the full
  // budget — so the bounded-verdict path is demonstrated here by rerunning
  // the paper's hourglass cells under a deliberately small budget.
  std::cout << "\nBounded-budget demonstration (max_states = 1000, the "
               "analogue of the paper's 5-hour cap):\n";
  const programs::ProgramSpec su_ref = programs::make_su_refactored();
  const auto syscalls = su_ref.syscalls_used();
  rosa::SearchLimits tiny;
  tiny.max_states = 1'000;
  const privanalyzer::ProgramAnalysis& su_a = analyses[1];
  for (std::size_t i = 0; i < su_a.chrono.rows.size(); ++i) {
    const auto& row = su_a.chrono.rows[i];
    if (!row.key.permitted.empty() &&
        row.key.permitted != caps::CapSet{caps::Capability::Setgid})
      continue;
    attacks::ScenarioInput in = attacks::scenario_from_epoch(
        row, syscalls, su_ref.scenario_extra_users,
        su_ref.scenario_extra_groups);
    rosa::SearchResult r;
    attacks::CellVerdict v =
        attacks::run_attack(attacks::AttackId::WriteDevMem, in, tiny, &r);
    std::cout << "  " << str::pad_right(row.name, 16) << " write-devmem: "
              << attacks::cell_symbol(v) << " (" << r.states_explored()
              << " states, " << str::fixed(r.seconds() * 1000, 2) << " ms)\n";
  }
  std::cout << "\nCSV (for plotting):\n"
            << privanalyzer::efficacy_to_csv(analyses);
  return 0;
}

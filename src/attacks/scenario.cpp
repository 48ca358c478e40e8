#include "attacks/scenario.h"

#include "support/error.h"

namespace pa::attacks {

char cell_symbol(CellVerdict v) {
  switch (v) {
    case CellVerdict::Vulnerable: return 'V';
    case CellVerdict::Safe: return 'x';
    case CellVerdict::Timeout: return 'T';
  }
  return '?';
}

CellVerdict cell_from_verdict(rosa::Verdict v) {
  switch (v) {
    case rosa::Verdict::Reachable: return CellVerdict::Vulnerable;
    case rosa::Verdict::Unreachable: return CellVerdict::Safe;
    case rosa::Verdict::ResourceLimit: return CellVerdict::Timeout;
  }
  return CellVerdict::Timeout;
}

ScenarioInput scenario_from_epoch(const chronopriv::EpochRow& row,
                                  std::vector<std::string> program_syscalls,
                                  std::vector<int> extra_users,
                                  std::vector<int> extra_groups) {
  ScenarioInput in;
  in.permitted = row.key.permitted;
  in.creds = row.key.creds;
  in.syscalls = std::move(program_syscalls);
  in.extra_users = std::move(extra_users);
  in.extra_groups = std::move(extra_groups);
  return in;
}

CellVerdict run_attack(AttackId attack, const ScenarioInput& input,
                       const rosa::SearchLimits& limits,
                       rosa::SearchResult* result) {
  rosa::SearchResult r =
      rosa::search(build_attack_query(attack, input), limits);
  CellVerdict verdict = cell_from_verdict(r.verdict);
  if (result) *result = std::move(r);
  return verdict;
}

EpochVerdicts analyze_epoch(const chronopriv::EpochRow& row,
                            const ScenarioInput& input,
                            const rosa::SearchLimits& limits) {
  EpochVerdicts out;
  out.epoch_name = row.name;
  for (std::size_t i = 0; i < modeled_attacks().size(); ++i) {
    const AttackId id = modeled_attacks()[i].id;
    out.verdicts[i] = run_attack(id, input, limits, &out.results[i]);
  }
  return out;
}

EpochMatrices analyze_epochs(
    const std::vector<chronopriv::EpochRow>& rows,
    const std::vector<ScenarioInput>& inputs,
    const std::vector<std::set<std::string>>& allowlists,
    const rosa::SearchLimits& limits, unsigned n_threads,
    const rosa::EscalationPolicy& escalation, rosa::QueryCache* cache) {
  PA_CHECK(rows.size() == inputs.size(),
           "analyze_epochs: rows and inputs must be parallel vectors");
  PA_CHECK(allowlists.empty() || allowlists.size() == rows.size(),
           "analyze_epochs: allowlists must be empty or parallel to rows");
  // Flatten both (epoch × attack) matrices into one query batch: the
  // baseline block, then each baseline query narrowed to its epoch's
  // allowlist. Baseline first makes a baseline cell every world group's
  // first member, the one that carries the group's fused_* counters.
  // run_queries guarantees input-ordered results, so row i of block b
  // lives at [(b * rows + i) * n_attacks, (b * rows + i + 1) * n_attacks).
  const std::size_t n_attacks = modeled_attacks().size();
  const std::size_t n_cells = rows.size() * n_attacks;
  std::vector<rosa::Query> queries;
  queries.reserve(allowlists.empty() ? n_cells : 2 * n_cells);
  for (const ScenarioInput& input : inputs)
    for (std::size_t a = 0; a < n_attacks; ++a)
      queries.push_back(build_attack_query(modeled_attacks()[a].id, input));
  if (!allowlists.empty())
    for (std::size_t k = 0; k < n_cells; ++k) {
      queries.push_back(queries[k]);
      narrow_to_allowlist(queries.back(), allowlists[k / n_attacks]);
    }

  std::vector<rosa::SearchResult> results =
      rosa::run_queries(queries, limits, n_threads, escalation, cache);

  auto block = [&](std::size_t first) {
    std::vector<EpochVerdicts> out;
    out.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EpochVerdicts ev;
      ev.epoch_name = rows[i].name;
      for (std::size_t a = 0; a < n_attacks; ++a) {
        rosa::SearchResult& r = results[first + i * n_attacks + a];
        ev.verdicts[a] = cell_from_verdict(r.verdict);
        ev.results[a] = std::move(r);
      }
      out.push_back(std::move(ev));
    }
    return out;
  };
  EpochMatrices out;
  out.baseline = block(0);
  if (!allowlists.empty()) out.filtered = block(n_cells);
  return out;
}

std::vector<EpochVerdicts> analyze_epochs(
    const std::vector<chronopriv::EpochRow>& rows,
    const std::vector<ScenarioInput>& inputs,
    const rosa::SearchLimits& limits, unsigned n_threads,
    const rosa::EscalationPolicy& escalation, rosa::QueryCache* cache) {
  return analyze_epochs(rows, inputs, {}, limits, n_threads, escalation,
                        cache)
      .baseline;
}

}  // namespace pa::attacks

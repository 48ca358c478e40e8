#include "attacks/scenario.h"

#include <cstdint>
#include <span>
#include <utility>

#include "rosa/prove.h"
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
    const rosa::SearchLimits& limits,
    const rosa::EscalationPolicy& escalation, rosa::QueryCache* cache) {
  PA_CHECK(rows.size() == inputs.size(),
           "analyze_epochs: rows and inputs must be parallel vectors");
  PA_CHECK(allowlists.empty() || allowlists.size() == rows.size(),
           "analyze_epochs: allowlists must be empty or parallel to rows");
  // One world per epoch, assembled once: its baseline queries, then (with
  // allowlists) copies of them narrowed to the epoch's allowlist. The
  // may-reach prover decides what it can of each world before anything is
  // fingerprinted, looked up or searched.
  const std::size_t n_attacks = modeled_attacks().size();
  const std::size_t n_blocks = allowlists.empty() ? 1 : 2;
  const std::size_t width = n_blocks * n_attacks;
  std::vector<rosa::Query> worlds;
  worlds.reserve(rows.size() * width);
  std::vector<std::uint64_t> proved(rows.size());
  rosa::Prover prover;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t first = worlds.size();
    for (rosa::Query& q : build_attack_queries(inputs[i]))
      worlds.push_back(std::move(q));
    if (!allowlists.empty()) {
      for (std::size_t a = 0; a < n_attacks; ++a)
        worlds.push_back(worlds[first + a]);
      narrow_to_allowlist(
          std::span<rosa::Query>(worlds).subspan(first + n_attacks, n_attacks),
          allowlists[i]);
    }
    proved[i] = prover.prove_unreachable(
        std::span<const rosa::Query>(worlds).subspan(first, width), limits);
  }

  // The unproved cells go to one run_queries batch: the baseline block,
  // then the filtered block. Baseline first makes a baseline cell every
  // world group's first member, the one that carries the group's fused_*
  // counters. Block b's row i lives at [(b * rows + i) * n_attacks, ...).
  std::vector<rosa::SearchResult> results(rows.size() * width);
  std::vector<rosa::Query> batch;
  std::vector<std::size_t> slot_of;
  for (std::size_t b = 0; b < n_blocks; ++b)
    for (std::size_t i = 0; i < rows.size(); ++i)
      for (std::size_t a = 0; a < n_attacks; ++a) {
        const std::size_t k = b * n_attacks + a;
        const std::size_t slot = (b * rows.size() + i) * n_attacks + a;
        if ((proved[i] >> k) & 1) {
          results[slot] = rosa::proved_result();
        } else {
          batch.push_back(std::move(worlds[i * width + k]));
          slot_of.push_back(slot);
        }
      }
  std::vector<rosa::SearchResult> searched =
      rosa::run_queries(batch, limits, escalation, cache);
  for (std::size_t k = 0; k < searched.size(); ++k)
    results[slot_of[k]] = std::move(searched[k]);

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
  if (!allowlists.empty()) out.filtered = block(rows.size() * n_attacks);
  return out;
}

std::vector<EpochVerdicts> analyze_epochs(
    const std::vector<chronopriv::EpochRow>& rows,
    const std::vector<ScenarioInput>& inputs,
    const rosa::SearchLimits& limits, unsigned,
    const rosa::EscalationPolicy& escalation, rosa::QueryCache* cache) {
  return analyze_epochs(rows, inputs, {}, limits, escalation, cache).baseline;
}

}  // namespace pa::attacks

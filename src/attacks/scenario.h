// Bridges ChronoPriv's dynamic epochs to ROSA attack queries and collects
// the per-epoch verdict matrix (the Vulnerability columns of Tables III/V).
#pragma once

#include <array>
#include <set>
#include <string>
#include <vector>

#include "attacks/attacks.h"
#include "chronopriv/report.h"
#include "rosa/cache.h"
#include "rosa/search.h"

namespace pa::attacks {

/// One cell of the vulnerability matrix.
enum class CellVerdict {
  Vulnerable,  // paper's check mark: the compromised state is reachable
  Safe,        // paper's cross: exhaustive search found no path
  Timeout,     // paper's hourglass: resource limit hit before exhaustion
};

/// Render as the paper does: "V" / "x" / "T".
char cell_symbol(CellVerdict v);

struct EpochVerdicts {
  std::string epoch_name;
  std::array<CellVerdict, 4> verdicts{};
  std::array<rosa::SearchResult, 4> results{};
};

/// Build the scenario input for one epoch. `program_syscalls` is the set of
/// syscalls the program can execute (the attack model's constraint);
/// extra uid/gid values widen the wildcard pools (used for the refactored
/// programs whose special users enlarge the search space).
ScenarioInput scenario_from_epoch(const chronopriv::EpochRow& row,
                                  std::vector<std::string> program_syscalls,
                                  std::vector<int> extra_users = {},
                                  std::vector<int> extra_groups = {});

/// Map a search verdict to the matrix cell it renders as.
CellVerdict cell_from_verdict(rosa::Verdict v);

/// Run all four attacks against one epoch, one rosa::search each, uncached
/// and without escalation: the per-epoch reference the fused matrix of
/// analyze_epochs is checked against (tests/rosa_fused_diff_test.cpp).
EpochVerdicts analyze_epoch(const chronopriv::EpochRow& row,
                            const ScenarioInput& input,
                            const rosa::SearchLimits& limits = {});

/// Both vulnerability matrices of one analysis, each ordered like its rows.
struct EpochMatrices {
  std::vector<EpochVerdicts> baseline;
  /// Empty when no allowlists were given.
  std::vector<EpochVerdicts> filtered;
};

/// Run the whole (epoch × attack) matrix on the calling thread. Each
/// epoch's cells share one world, which the may-reach prover
/// (rosa/prove.h) sees first: a cell it proves is Unreachable with
/// stats.proved = 1 and is never fingerprinted, looked up, stored or
/// searched. The rest go to one rosa::run_queries batch, so an epoch's
/// remaining attacks fuse into one shared exploration. rows and inputs are
/// parallel vectors. The verdicts are those per-epoch analyze_epoch calls
/// would give, and so are the witnesses and counters of every searched
/// cell (tests/rosa_fused_diff_test.cpp). `escalation` retries ResourceLimit
/// queries with geometrically grown budgets (rosa::search_escalating),
/// shrinking the presumed-invulnerable bucket; `cache` (optional,
/// non-owning) memoizes results by content fingerprint (rosa/cache.h), so
/// epochs posing the same reachability question are searched once.
///
/// `allowlists` is empty (no filtered matrix) or parallel to rows: each
/// epoch's syscall allowlist. The filtered matrix poses every baseline
/// query again through narrow_to_allowlist, in the SAME world and batch, so
/// an epoch's eight queries are proved together and the rest share one
/// fused exploration. Once `limits` expire, nothing more is proved and the
/// remaining cells get the batch's ResourceLimit stubs.
EpochMatrices analyze_epochs(
    const std::vector<chronopriv::EpochRow>& rows,
    const std::vector<ScenarioInput>& inputs,
    const std::vector<std::set<std::string>>& allowlists,
    const rosa::SearchLimits& limits,
    const rosa::EscalationPolicy& escalation, rosa::QueryCache* cache);

/// The baseline matrix alone: analyze_epochs without allowlists. The
/// unnamed `unsigned` is ignored. It is the retired ROSA worker count, kept
/// only because the benchmark's copy of the pipeline stages under pabench/
/// still passes it.
std::vector<EpochVerdicts> analyze_epochs(
    const std::vector<chronopriv::EpochRow>& rows,
    const std::vector<ScenarioInput>& inputs,
    const rosa::SearchLimits& limits = {}, unsigned = 1,
    const rosa::EscalationPolicy& escalation = {},
    rosa::QueryCache* cache = nullptr);

/// Run one attack (one rosa::search); maps the search verdict to a cell
/// verdict.
CellVerdict run_attack(AttackId attack, const ScenarioInput& input,
                       const rosa::SearchLimits& limits,
                       rosa::SearchResult* result = nullptr);

}  // namespace pa::attacks

// Plain-text rendering of the paper's tables from pipeline results.
#pragma once

#include <string>
#include <vector>

#include "lint/lint.h"
#include "privanalyzer/efficacy.h"

namespace pa::privanalyzer {

/// PrivLint reports, one block per program, with a batch summary line
/// (the `privanalyzer --lint` output).
std::string render_lint_reports(const std::vector<lint::LintReport>& reports);

/// Table I: the modeled attacks.
std::string render_attack_table();

/// Table II: the evaluation programs (model sizes instead of SLOC).
std::string render_program_table(
    const std::vector<programs::ProgramSpec>& specs);

/// Tables III / V: one block per program with privilege set, uids, gids,
/// dynamic instruction count + share, and the four-attack verdict columns
/// (V = vulnerable, x = invulnerable, T = resource limit / timeout).
std::string render_efficacy_table(
    const std::vector<ProgramAnalysis>& analyses, const std::string& title);

/// Table IV: instruction churn between stock and refactored models.
std::string render_refactor_diff_table();

/// Per-program ROSA search statistics (states, transitions, dedup hits,
/// hash collisions, peak frontier, escalation rounds, wall time) summed
/// over every (epoch × attack) query the analysis ran, baseline and
/// filtered matrix alike — the `privanalyzer --stats` block.
std::string render_search_stats(const std::vector<ProgramAnalysis>& analyses);

/// One program's status line + structured diagnostics, for batch runs with
/// failed or degraded analyses. Empty string when the analysis is clean.
std::string render_analysis_diagnostics(const ProgramAnalysis& analysis);

/// EpochFilter block (--filters=report|enforce): per-epoch allowlist sizes
/// against the program's full syscall surface, the filtered verdict columns
/// when ROSA ran, and per-attack vulnerable-fraction deltas.
/// Empty string for analyses without a filter report.
std::string render_filter_report(const std::vector<ProgramAnalysis>& analyses);

}  // namespace pa::privanalyzer

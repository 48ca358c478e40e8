// Machine-readable exports of pipeline results: CSV (for plotting the
// paper's figures) and Markdown (for reports/PRs). Complements the
// plain-text rendering in privanalyzer/render.h.
#pragma once

#include <string>
#include <vector>

#include "lint/lint.h"
#include "privanalyzer/efficacy.h"

namespace pa::privanalyzer {

/// PrivLint reports as a JSON array, one object per program with its
/// findings and !lint-allow-suppressed findings (`privanalyzer --lint-json`).
std::string lint_reports_to_json(const std::vector<lint::LintReport>& reports);

/// Epoch table as CSV:
/// program,epoch,permitted,ruid,euid,suid,rgid,egid,sgid,instructions,fraction
std::string epochs_to_csv(const chronopriv::ChronoReport& report);

/// Full efficacy matrix as CSV:
/// program,epoch,fraction,attack1,attack2,attack3,attack4 (V/x/T cells).
std::string efficacy_to_csv(const std::vector<ProgramAnalysis>& analyses);

/// Full efficacy matrix as a GitHub-flavoured Markdown table.
std::string efficacy_to_markdown(const std::vector<ProgramAnalysis>& analyses);

/// Per-query ROSA search statistics as CSV:
/// program,epoch,attack,verdict,states,transitions,dedup_hits,
/// hash_collisions,peak_frontier,peak_bytes,bytes_per_state,escalations,
/// fused_group_size,fused_searches_saved,fused_world_states,proved,
/// cache_hits,cache_misses,seconds
std::string search_stats_to_csv(const std::vector<ProgramAnalysis>& analyses);

/// Per-epoch EpochFilter metrics as CSV (empty-report analyses skipped):
/// program,epoch,conservative_size,refined_size,surface,reduced,
/// baseline_vulnerable,filtered_vulnerable
/// where the vulnerable columns are the epoch-weighted any-attack verdict
/// cells ("V"/"x"/"T" per attack, joined without separators).
std::string filters_to_csv(const std::vector<ProgramAnalysis>& analyses);

/// Per-program filter reports as a JSON array (filters::filters_to_json
/// objects; documented in docs/formats.md). Analyses without a report are
/// skipped; "[]" when none have one.
std::string filters_to_json(const std::vector<ProgramAnalysis>& analyses);

}  // namespace pa::privanalyzer

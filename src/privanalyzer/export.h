// Machine-readable exports of pipeline results: the efficacy matrix as CSV
// (for plotting the paper's tables), and filter and lint reports as JSON.
// Complements the plain-text rendering in privanalyzer/render.h.
#pragma once

#include <string>
#include <vector>

#include "lint/lint.h"
#include "privanalyzer/efficacy.h"

namespace pa::privanalyzer {

/// PrivLint reports as a JSON array, one object per program with its
/// findings and !lint-allow-suppressed findings (`privanalyzer --lint-json`).
std::string lint_reports_to_json(const std::vector<lint::LintReport>& reports);

/// Full efficacy matrix as CSV: program,epoch,permitted,fraction, then one
/// column per modeled attack, named after it (V/x/T cells).
std::string efficacy_to_csv(const std::vector<ProgramAnalysis>& analyses);

/// Per-program filter reports as a JSON array (filters::filters_to_json
/// objects; documented in docs/formats.md). Analyses without a report are
/// skipped; "[]" when none have one.
std::string filters_to_json(const std::vector<ProgramAnalysis>& analyses);

}  // namespace pa::privanalyzer

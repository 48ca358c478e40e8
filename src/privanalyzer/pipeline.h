// The end-to-end PrivAnalyzer pipeline (Fig. 1): AutoPriv static analysis +
// transformation, ChronoPriv measured execution, then one ROSA query per
// (privilege epoch × modeled attack).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "attacks/scenario.h"
#include "autopriv/report.h"
#include "chronopriv/instrument.h"
#include "filters/epoch_filter.h"
#include "lint/lint.h"
#include "programs/world.h"
#include "support/diagnostics.h"

namespace pa::privanalyzer {

/// EpochFilter modes (--filters): Report synthesizes per-epoch syscall
/// allowlists and decides a filtered attack matrix under them, in the same
/// ROSA batch as the baseline; Enforce additionally installs the
/// conservative allowlists in the kernel and re-executes the program under
/// them (a no-op for legitimate runs — the soundness gate).
enum class FilterMode { Off, Report, Enforce };

std::string_view filter_mode_name(FilterMode m);
/// Inverse of filter_mode_name ("off"/"report"/"enforce"); nullopt on junk.
std::optional<FilterMode> parse_filter_mode(std::string_view name);

struct PipelineOptions {
  autopriv::Options autopriv;
  /// Per-query budgets plus engine mode flags, passed through to every
  /// search of the matrix. The four attacks of each epoch always share one
  /// fused exploration per world digest; results match standalone
  /// searches (tests/rosa_fused_diff_test.cpp). Its `cancel` flag also
  /// reaches ChronoPriv's measured execution (and the enforce re-run):
  /// once raised, the interpreter faults "cancelled" within one turn of
  /// 2^16 instructions, so a Cancel frame, an abort-shutdown or the CLI's
  /// SIGINT stops a program that is still interpreting.
  rosa::SearchLimits rosa_limits;
  /// Attacker strength (§X) for every query of both the baseline and the
  /// filtered matrix (`--attacker`). Full is the paper's model.
  rosa::AttackerModel attacker = rosa::AttackerModel::Full;
  /// Skip the ROSA stage (ChronoPriv-only runs for tests/benches).
  bool run_rosa = true;
  /// Pipeline-wide wall-clock budget in seconds for the ROSA stage
  /// (0 = none). When it expires, in-flight searches stop at their next
  /// frontier pop, queries not yet started are skipped, remaining cells
  /// become Timeout, and the analysis completes with a DeadlineExceeded
  /// warning diagnostic — a runaway query matrix can degrade results but
  /// never hang a batch. A budget too large for steady_clock to represent
  /// (e.g. +inf) means no deadline.
  double max_total_seconds = 0.0;
  /// The verdict cache (rosa/cache.h) the ROSA stage shares with other
  /// analyses: the CLI gives a batch one, so program N+1 reuses program N's
  /// searches, and privanalyzerd gives every job its resident one. Cached
  /// verdicts, fractions, witnesses and work counters are bit-identical to
  /// uncached ones; hit/miss counters surface in `--stats`. When unset, and
  /// rosa_cache_file is empty, nothing is looked up or stored: within one
  /// matrix, duplicate cells already share a fused task, which copies its
  /// representative's result.
  std::shared_ptr<rosa::QueryCache> rosa_cache_instance;
  /// Persistent verdict cache (--rosa-cache FILE): loaded before the ROSA
  /// stage (corrupt or stale files are ignored with a CacheLoadFailed
  /// warning — never an error) and atomically rewritten afterwards, so
  /// repeat batch runs skip unchanged programs entirely. It is loaded into
  /// rosa_cache_instance, or into a cache made for the file alone.
  std::string rosa_cache_file;
  /// Custom world builder (e.g. os::world_from_file); when unset the
  /// standard or refactored world is chosen by the program spec.
  std::function<os::Kernel()> world_factory;
  /// Run the IR cleanup passes (ir::simplify) after AutoPriv's transform.
  /// Off by default so dynamic instruction counts stay comparable to the
  /// untransformed layout.
  bool simplify_after_autopriv = false;
  /// Run the PrivLint passes (lint/lint.h) before AutoPriv, attaching any
  /// findings to the analysis as Stage::Lint diagnostics. Findings never
  /// flip the analysis to Failed — lint verdicts gate via the dedicated
  /// `privanalyzer --lint` mode's exit code, not the pipeline's.
  bool run_lint = false;
  lint::LintOptions lint;
  /// EpochFilter synthesis/enforcement (see FilterMode above). The baseline
  /// ChronoPriv table and ROSA matrix are produced identically in every
  /// mode; Report/Enforce additionally fill ProgramAnalysis::filter_report
  /// and filtered_verdicts.
  FilterMode filters = FilterMode::Off;
  /// Violation semantics when filters are enforced (os/filter.h).
  os::FilterAction filter_action = os::FilterAction::Eperm;

  // Ignored: nothing in the library reads these. They are the retired ROSA
  // worker count, budget-escalation rounds and cache switch, kept only
  // because the benchmark's copy of the pipeline stages under pabench/
  // still assigns them and passes them on.
  unsigned rosa_threads = 1;
  unsigned rosa_escalation_rounds = 0;
  bool rosa_cache = true;
};

/// Outcome of one program's trip through the pipeline.
enum class AnalysisStatus {
  Ok,      // every stage completed (possibly with warning diagnostics)
  Failed,  // a stage threw; diagnostics say which and why
};

std::string_view analysis_status_name(AnalysisStatus s);

/// Process exit codes for batch drivers (tools/privanalyzer_main.cpp):
/// partial failure is distinct so scripts can tell "some programs failed
/// but the rest analyzed" from a total loss.
inline constexpr int kExitOk = 0;
inline constexpr int kExitAllFailed = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitPartialFailure = 3;
/// SIGINT/SIGTERM interrupted the batch: in-flight searches were cancelled
/// cooperatively (persistent caches already flushed for completed
/// programs) and remaining programs were skipped.
inline constexpr int kExitInterrupted = 4;

/// Everything PrivAnalyzer produces for one program: the static report, the
/// dynamic epoch table, and the per-epoch vulnerability matrix.
struct ProgramAnalysis {
  std::string program;
  autopriv::StaticReport autopriv_report;
  chronopriv::ChronoReport chrono;
  /// Parallel to chrono.rows; empty when run_rosa was false.
  std::vector<attacks::EpochVerdicts> verdicts;
  /// Per-epoch syscall allowlists (empty when PipelineOptions::filters was
  /// Off). Rows parallel to chrono.rows.
  filters::FilterReport filter_report;
  /// The attack matrix with each epoch's attacker constrained to its
  /// conservative allowlist: every baseline query with its message mask
  /// narrowed (attacks::narrow_to_allowlist), decided in the baseline's
  /// batch and fused explorations. Parallel to chrono.rows, empty unless
  /// filters were on and ROSA ran. The baseline `verdicts` are untouched.
  std::vector<attacks::EpochVerdicts> filtered_verdicts;
  /// Syscalls the enforced filters denied (Enforce mode; 0 for sound
  /// conservative filters — anything else raises a FilterViolation warning).
  int filter_violations = 0;
  long exit_code = 0;
  /// Failed analyses (status != Ok) carry the failure in `diagnostics` and
  /// whatever partial results the stages produced before throwing; batch
  /// drivers keep going past them (try_analyze_program / analyze_programs).
  AnalysisStatus status = AnalysisStatus::Ok;
  std::vector<support::Diagnostic> diagnostics;

  bool ok() const { return status == AnalysisStatus::Ok; }

  /// Fraction of executed instructions during which `attack` (0-based
  /// index into attacks::modeled_attacks()) was feasible. Timeout epochs are
  /// excluded (the paper treats them as presumed-invulnerable).
  double vulnerable_fraction(std::size_t attack) const;

  /// As vulnerable_fraction, over the filtered matrix (0.0 when filters
  /// were off — callers should gate on filtered_verdicts.empty()).
  double filtered_vulnerable_fraction(std::size_t attack) const;

  /// Aggregate ROSA counters over every (epoch × attack) query this
  /// analysis ran, in both `verdicts` and `filtered_verdicts` (rendered by
  /// `privanalyzer --stats`).
  rosa::SearchStats search_stats() const;
};

/// Run the full pipeline on one program model. Throws (pa::Error /
/// support::StageError) on stage failure — use the try_* variants for
/// exception-isolated batch runs.
ProgramAnalysis analyze_program(const programs::ProgramSpec& spec,
                                const PipelineOptions& options = {});

/// Exception-isolated analyze_program: never throws. A stage failure yields
/// status == Failed with the structured diagnostic recorded, so one bad
/// program cannot abort a batch.
ProgramAnalysis try_analyze_program(const programs::ProgramSpec& spec,
                                    const PipelineOptions& options = {});

/// Load a program file (loader + verifier) and analyze it, with the same
/// isolation guarantee: loader/verifier failures come back as a Failed
/// analysis named after the file, never as an exception.
ProgramAnalysis try_analyze_file(const std::string& path,
                                 const PipelineOptions& options = {});

/// Batch driver: one isolated analysis per spec, in order. Failures are
/// recorded and skipped over; the batch always returns specs.size() entries.
std::vector<ProgramAnalysis> analyze_programs(
    const std::vector<programs::ProgramSpec>& specs,
    const PipelineOptions& options = {});

/// The exit code a batch run should report: kExitOk when every analysis
/// succeeded, kExitPartialFailure when some did, kExitAllFailed when none
/// did (or the batch was empty and `empty_is_failure`).
int batch_exit_code(const std::vector<ProgramAnalysis>& analyses,
                    bool empty_is_failure = false);

/// analyze_program's stage 1: `spec`'s module after AutoPriv's transform,
/// and after ir::simplify when options.simplify_after_autopriv is set —
/// the module ChronoPriv runs. `report`, when given, receives AutoPriv's
/// static report.
ir::Module transformed_module(const programs::ProgramSpec& spec,
                              const PipelineOptions& options = {},
                              autopriv::StaticReport* report = nullptr);

}  // namespace pa::privanalyzer

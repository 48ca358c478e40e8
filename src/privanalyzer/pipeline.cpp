#include "privanalyzer/pipeline.h"

#include <chrono>
#include <set>

#include "ir/transforms.h"
#include "privanalyzer/loader.h"
#include "support/faultpoint.h"
#include "support/str.h"

namespace pa::privanalyzer {

std::string_view analysis_status_name(AnalysisStatus s) {
  switch (s) {
    case AnalysisStatus::Ok: return "ok";
    case AnalysisStatus::Failed: return "failed";
  }
  return "?";
}

std::string_view filter_mode_name(FilterMode m) {
  switch (m) {
    case FilterMode::Off: return "off";
    case FilterMode::Report: return "report";
    case FilterMode::Enforce: return "enforce";
  }
  return "?";
}

std::optional<FilterMode> parse_filter_mode(std::string_view name) {
  for (FilterMode m : {FilterMode::Off, FilterMode::Report,
                       FilterMode::Enforce})
    if (filter_mode_name(m) == name) return m;
  return std::nullopt;
}

double ProgramAnalysis::vulnerable_fraction(std::size_t attack) const {
  double total = 0.0;
  for (std::size_t i = 0; i < verdicts.size() && i < chrono.rows.size(); ++i)
    if (verdicts[i].verdicts[attack] == attacks::CellVerdict::Vulnerable)
      total += chrono.rows[i].fraction;
  return total;
}

double ProgramAnalysis::filtered_vulnerable_fraction(std::size_t attack) const {
  double total = 0.0;
  for (std::size_t i = 0;
       i < filtered_verdicts.size() && i < chrono.rows.size(); ++i)
    if (filtered_verdicts[i].verdicts[attack] ==
        attacks::CellVerdict::Vulnerable)
      total += chrono.rows[i].fraction;
  return total;
}

rosa::SearchStats ProgramAnalysis::search_stats() const {
  rosa::SearchStats total;
  for (const auto* matrix : {&verdicts, &filtered_verdicts})
    for (const attacks::EpochVerdicts& ev : *matrix)
      for (const rosa::SearchResult& r : ev.results) total.merge(r.stats);
  return total;
}

ir::Module transformed_module(const programs::ProgramSpec& spec,
                              const autopriv::Options& options) {
  // ProgramSpec factories are cheap; rebuilding gives us a fresh module to
  // transform without copying IR.
  ir::Module module = spec.module;
  autopriv::run_autopriv(module, "main", options);
  return module;
}

ProgramAnalysis analyze_program(const programs::ProgramSpec& spec,
                                const PipelineOptions& options) {
  ProgramAnalysis out;
  out.program = spec.name;

  // Stage 0 (optional): PrivLint over the untransformed program. Findings
  // ride along as diagnostics; they never abort the analysis.
  if (options.run_lint) {
    lint::LintReport report = lint::run_lints(spec, options.lint);
    for (support::Diagnostic& d : report.to_diagnostics())
      out.diagnostics.push_back(std::move(d));
  }

  // Stage 1: AutoPriv.
  ir::Module module = spec.module;
  out.autopriv_report = autopriv::run_autopriv(module, "main", options.autopriv);
  if (options.simplify_after_autopriv) ir::simplify(module);

  // Stage 2: ChronoPriv measured execution in the right world.
  auto make_world = [&options, &spec]() {
    return options.world_factory
               ? options.world_factory()
               : (spec.refactored_world ? programs::make_refactored_world()
                                        : programs::make_standard_world());
  };
  os::Kernel kernel = make_world();
  os::Pid pid = programs::spawn_program(kernel, spec);
  // The cancel flag that stops ROSA's searches stops ChronoPriv's runs too.
  const vm::RunLimits run_limits{.cancel = options.rosa_limits.cancel};
  if (options.filters == FilterMode::Off) {
    out.chrono = chronopriv::run_instrumented(
        kernel, module, pid, spec.args, "main", &out.exit_code, run_limits);
  } else {
    // Measurement run with point capture: the observed per-epoch entry
    // points are the roots the static reachable-syscall closure grows from.
    chronopriv::EpochTracker tracker;
    tracker.set_record_points(true);
    out.chrono = chronopriv::run_instrumented_with(
        kernel, module, pid, tracker, spec.args, "main", &out.exit_code,
        run_limits);
    out.filter_report = filters::synthesize_filters(module, out.chrono,
                                                    tracker.epoch_points());

    if (options.filters == FilterMode::Enforce) {
      // Re-execute in a fresh, identically-constructed world with the
      // conservative allowlists installed. Execution is deterministic, so
      // epoch indices are discovered in the same order as the measurement
      // run and the epoch-change hook keeps the active filter in lockstep.
      // Sound filters make this run bit-identical to the measurement.
      os::Kernel enforced_kernel = make_world();
      os::Pid enforced_pid = programs::spawn_program(enforced_kernel, spec);
      enforced_kernel.install_filters(
          enforced_pid,
          filters::to_filter_stack(out.filter_report, options.filter_action));
      chronopriv::EpochTracker enforced_tracker;
      enforced_tracker.set_epoch_change_hook(
          [&enforced_kernel, enforced_pid](std::size_t epoch) {
            enforced_kernel.set_filter_epoch(enforced_pid, epoch);
          });
      long enforced_exit = 0;
      chronopriv::ChronoReport enforced = chronopriv::run_instrumented_with(
          enforced_kernel, module, enforced_pid, enforced_tracker, spec.args,
          "main", &enforced_exit, run_limits);
      out.filter_violations =
          static_cast<int>(enforced_kernel.filter_violations().size());
      if (out.filter_violations > 0) {
        const os::FilterViolation& v =
            enforced_kernel.filter_violations().front();
        out.diagnostics.push_back(support::Diagnostic{
            support::Stage::ChronoPriv, support::Severity::Warning,
            support::DiagCode::FilterViolation, spec.name,
            str::cat("enforced epoch filter denied ", out.filter_violations,
                     " syscall(s); first: ", v.syscall, " in epoch ",
                     v.epoch,
                     " — the conservative closure should be sound, so this "
                     "indicates nondeterminism or a reachability bug")});
      }
      // The enforced run IS the reported execution in this mode; for sound
      // filters it reproduces the measurement bit-identically.
      out.chrono = std::move(enforced);
      out.exit_code = enforced_exit;
    }
  }

  // Stage 3: one ROSA query per (epoch x attack), decided as one batch on
  // this thread. A pipeline-wide deadline applies here — the matrix is the
  // runaway-cost stage.
  if (options.run_rosa) {
    rosa::SearchLimits limits = options.rosa_limits;
    limits.deadline = rosa::deadline_after(options.max_total_seconds);

    // Verdict cache: the shared instance, else one made for the persistent
    // file alone, else none. The file is loaded up front — a bad file
    // degrades to a cold cache with a warning, never a failure — and
    // rewritten after the matrix completes.
    std::shared_ptr<rosa::QueryCache> cache = options.rosa_cache_instance;
    if (!cache && !options.rosa_cache_file.empty())
      cache = std::make_shared<rosa::QueryCache>();
    if (!options.rosa_cache_file.empty()) {
      PA_FAULTPOINT("rosa.cache_load");
      std::string warn;
      if (!cache->load_file(options.rosa_cache_file, &warn))
        out.diagnostics.push_back(support::Diagnostic{
            support::Stage::Rosa, support::Severity::Warning,
            support::DiagCode::CacheLoadFailed, spec.name, warn});
    }

    const std::vector<std::string> syscalls = spec.syscalls_used();
    std::vector<attacks::ScenarioInput> inputs;
    inputs.reserve(out.chrono.rows.size());
    for (const chronopriv::EpochRow& row : out.chrono.rows) {
      inputs.push_back(attacks::scenario_from_epoch(
          row, syscalls, spec.scenario_extra_users,
          spec.scenario_extra_groups));
      inputs.back().attacker = options.attacker;
    }

    // With filters on, the filtered matrix rides in the same batch: each
    // baseline query with its attacker constrained to the epoch's
    // conservative allowlist — what an exploit could still do with the
    // filters installed. An epoch the report does not cover may issue
    // nothing. The baseline matrix is untouched (Off/Report/Enforce all
    // report identical baselines).
    std::vector<std::set<std::string>> allowlists;
    if (options.filters != FilterMode::Off && !out.filter_report.empty()) {
      allowlists.resize(out.chrono.rows.size());
      for (std::size_t i = 0;
           i < allowlists.size() && i < out.filter_report.epochs.size(); ++i)
        allowlists[i] = out.filter_report.epochs[i].conservative;
    }
    attacks::EpochMatrices matrices = attacks::analyze_epochs(
        out.chrono.rows, inputs, allowlists, limits, cache.get());
    out.verdicts = std::move(matrices.baseline);
    out.filtered_verdicts = std::move(matrices.filtered);

    if (!options.rosa_cache_file.empty()) {
      std::string warn;
      if (!cache->save_file(options.rosa_cache_file, &warn))
        out.diagnostics.push_back(support::Diagnostic{
            support::Stage::Rosa, support::Severity::Warning,
            support::DiagCode::CacheSaveFailed, spec.name, warn});
    }

    if (limits.has_deadline() &&
        std::chrono::steady_clock::now() >= limits.deadline)
      out.diagnostics.push_back(support::Diagnostic{
          support::Stage::Rosa, support::Severity::Warning,
          support::DiagCode::DeadlineExceeded, spec.name,
          str::cat("pipeline deadline of ", str::fixed(options.max_total_seconds, 3),
                   "s expired during the query matrix; unfinished cells "
                   "report as Timeout (presumed invulnerable)")});
  }
  return out;
}

namespace {

/// Shared failure path: convert the in-flight exception into a Failed
/// analysis carrying a structured diagnostic.
ProgramAnalysis failed_analysis(std::string program, const std::exception& e,
                                support::Stage fallback_stage) {
  ProgramAnalysis out;
  out.status = AnalysisStatus::Failed;
  out.diagnostics.push_back(
      support::diagnostic_from_exception(e, fallback_stage, program));
  // Prefer the diagnostic's program attribution (e.g. the !name directive
  // parsed before the failure) over the caller's guess.
  out.program = out.diagnostics.back().program.empty()
                    ? std::move(program)
                    : out.diagnostics.back().program;
  return out;
}

}  // namespace

ProgramAnalysis try_analyze_program(const programs::ProgramSpec& spec,
                                    const PipelineOptions& options) {
  try {
    return analyze_program(spec, options);
  } catch (const std::exception& e) {
    return failed_analysis(spec.name, e, support::Stage::Pipeline);
  }
}

ProgramAnalysis try_analyze_file(const std::string& path,
                                 const PipelineOptions& options) {
  programs::ProgramSpec spec;
  try {
    spec = load_program_file(path);
  } catch (const std::exception& e) {
    // Attribute load failures to the file's basename (the loader's default
    // program name) so batch reports stay readable.
    std::string base = path;
    if (auto slash = base.find_last_of('/'); slash != std::string::npos)
      base = base.substr(slash + 1);
    return failed_analysis(std::move(base), e, support::Stage::Loader);
  }
  return try_analyze_program(spec, options);
}

std::vector<ProgramAnalysis> analyze_programs(
    const std::vector<programs::ProgramSpec>& specs,
    const PipelineOptions& options) {
  std::vector<ProgramAnalysis> out;
  out.reserve(specs.size());
  for (const programs::ProgramSpec& spec : specs)
    out.push_back(try_analyze_program(spec, options));
  return out;
}

int batch_exit_code(const std::vector<ProgramAnalysis>& analyses,
                    bool empty_is_failure) {
  if (analyses.empty()) return empty_is_failure ? kExitAllFailed : kExitOk;
  std::size_t failed = 0;
  for (const ProgramAnalysis& a : analyses)
    if (!a.ok()) ++failed;
  if (failed == 0) return kExitOk;
  if (failed == analyses.size()) return kExitAllFailed;
  return kExitPartialFailure;
}

}  // namespace pa::privanalyzer

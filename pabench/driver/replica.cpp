#include "driver/replica.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "attacks/scenario.h"
#include "autopriv/report.h"
#include "chronopriv/epoch.h"
#include "chronopriv/instrument.h"
#include "filters/epoch_filter.h"

namespace pabench {

namespace pv = pa::privanalyzer;

void StageCounters::add(const StageCounters& o) {
  instructions += o.instructions;
  queries += o.queries;
  states += o.states;
  transitions += o.transitions;
  peak_bytes = std::max(peak_bytes, o.peak_bytes);
  cache_hits += o.cache_hits;
  cache_misses += o.cache_misses;
}

StageCounters counters_of(const pv::ProgramAnalysis& a) {
  StageCounters c;
  c.instructions = a.chrono.total_instructions;
  for (const auto* matrix : {&a.verdicts, &a.filtered_verdicts})
    for (const pa::attacks::EpochVerdicts& ev : *matrix)
      for (const pa::rosa::SearchResult& r : ev.results) {
        ++c.queries;
        c.cache_hits += r.stats.cache_hits;
        c.cache_misses += r.stats.cache_misses;
        // A hit carries the stored search's counters; only searches count
        // as work.
        if (r.stats.cache_hits) continue;
        c.states += r.stats.states;
        c.transitions += r.stats.transitions;
        c.peak_bytes = std::max<std::uint64_t>(c.peak_bytes,
                                               r.stats.peak_bytes);
      }
  return c;
}

pv::ProgramAnalysis analyze_traced(const pa::programs::ProgramSpec& spec,
                                   const pv::PipelineOptions& options,
                                   SpanRecorder& rec, std::uint64_t op,
                                   int parent) {
  ScopedSpan glue(rec, "privanalyzer", op, parent);
  const int p = glue.id();
  pv::ProgramAnalysis out;
  out.program = spec.name;

  pa::ir::Module module = spec.module;
  {
    ScopedSpan s(rec, "autopriv", op, p);
    out.autopriv_report =
        pa::autopriv::run_autopriv(module, "main", options.autopriv);
  }

  const int world_span = rec.begin("os.world", op, p);
  pa::os::Kernel kernel = spec.refactored_world
                              ? pa::programs::make_refactored_world()
                              : pa::programs::make_standard_world();
  const pa::os::Pid pid = pa::programs::spawn_program(kernel, spec);
  rec.end(world_span);

  const bool filters = options.filters != pv::FilterMode::Off;
  pa::chronopriv::EpochTracker tracker;
  {
    ScopedSpan s(rec, "chronopriv", op, p);
    if (!filters) {
      out.chrono = pa::chronopriv::run_instrumented(
          kernel, module, pid, spec.args, "main", &out.exit_code);
    } else {
      tracker.set_record_points(true);
      out.chrono = pa::chronopriv::run_instrumented_with(
          kernel, module, pid, tracker, spec.args, "main", &out.exit_code);
    }
  }
  if (filters) {
    ScopedSpan s(rec, "filters", op, p);
    out.filter_report = pa::filters::synthesize_filters(
        module, out.chrono, tracker.epoch_points());
  }
  if (!options.run_rosa) return out;

  pa::rosa::SearchLimits limits = options.rosa_limits;
  if (options.max_total_seconds > 0)
    limits.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.max_total_seconds));
  const pa::rosa::EscalationPolicy escalation{options.rosa_escalation_rounds,
                                              2.0};
  std::shared_ptr<pa::rosa::QueryCache> cache = options.rosa_cache_instance;
  if (!cache && options.rosa_cache)
    cache = std::make_shared<pa::rosa::QueryCache>();

  std::vector<std::string> syscalls;
  std::vector<pa::attacks::ScenarioInput> inputs;
  {
    ScopedSpan s(rec, "attacks.scenario", op, p);
    syscalls = spec.syscalls_used();
    inputs.reserve(out.chrono.rows.size());
    for (const pa::chronopriv::EpochRow& row : out.chrono.rows)
      inputs.push_back(pa::attacks::scenario_from_epoch(
          row, syscalls, spec.scenario_extra_users,
          spec.scenario_extra_groups));
  }
  {
    ScopedSpan s(rec, "rosa", op, p);
    out.verdicts = pa::attacks::analyze_epochs(out.chrono.rows, inputs, limits,
                                               options.rosa_threads,
                                               escalation, cache.get());
  }
  if (!filters || out.filter_report.empty()) return out;

  std::vector<pa::attacks::ScenarioInput> filtered_inputs;
  {
    ScopedSpan s(rec, "attacks.scenario", op, p);
    filtered_inputs.reserve(out.chrono.rows.size());
    for (std::size_t i = 0; i < out.chrono.rows.size(); ++i) {
      std::vector<std::string> allowed;
      if (i < out.filter_report.epochs.size())
        for (const std::string& sc : syscalls)
          if (out.filter_report.epochs[i].conservative.contains(sc))
            allowed.push_back(sc);
      filtered_inputs.push_back(pa::attacks::scenario_from_epoch(
          out.chrono.rows[i], allowed, spec.scenario_extra_users,
          spec.scenario_extra_groups));
    }
  }
  {
    ScopedSpan s(rec, "rosa", op, p);
    out.filtered_verdicts = pa::attacks::analyze_epochs(
        out.chrono.rows, filtered_inputs, limits, options.rosa_threads,
        escalation, cache.get());
  }
  return out;
}

namespace {

ProgramOutcome outcome(const pv::ProgramAnalysis& a,
                       const std::vector<pa::attacks::EpochVerdicts>& matrix,
                       bool filtered) {
  ProgramOutcome o;
  o.exit_code = a.exit_code;
  for (std::size_t i = 0; i < a.chrono.rows.size(); ++i) {
    const pa::chronopriv::EpochRow& row = a.chrono.rows[i];
    EpochOutcome e{row.name, row.instructions, ""};
    if (i < matrix.size())
      for (pa::attacks::CellVerdict v : matrix[i].verdicts)
        e.verdicts.push_back(pa::attacks::cell_symbol(v));
    o.epochs.push_back(std::move(e));
  }
  for (std::size_t k = 0; k < 4; ++k)
    o.vulnerable_fraction[k] = filtered ? a.filtered_vulnerable_fraction(k)
                                        : a.vulnerable_fraction(k);
  return o;
}

}  // namespace

ProgramOutcome baseline_outcome(const pv::ProgramAnalysis& a) {
  return outcome(a, a.verdicts, false);
}

ProgramOutcome filtered_outcome(const pv::ProgramAnalysis& a) {
  return outcome(a, a.filtered_verdicts, true);
}

}  // namespace pabench

#include "daemon/job.h"

#include <exception>
#include <functional>
#include <map>

#include "attacks/attacks.h"
#include "attacks/scenario.h"
#include "privanalyzer/loader.h"
#include "support/diagnostics.h"
#include "support/str.h"

namespace pa::daemon {
namespace {

using privanalyzer::AnalysisStatus;
using privanalyzer::ProgramAnalysis;
using support::DiagCode;

const std::map<std::string, programs::ProgramSpec (*)(), std::less<>>&
builtin_factories() {
  static const std::map<std::string, programs::ProgramSpec (*)(), std::less<>>
      factories = {
          {"passwd", &programs::make_passwd},
          {"su", &programs::make_su},
          {"ping", &programs::make_ping},
          {"thttpd", &programs::make_thttpd},
          {"sshd", &programs::make_sshd},
      };
  return factories;
}

bool has_diag(const ProgramAnalysis& a, DiagCode code) {
  for (const auto& d : a.diagnostics)
    if (d.code == code) return true;
  return false;
}

}  // namespace

std::string_view job_state_name(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Timeout: return "timeout";
    case JobState::Rejected: return "rejected";
  }
  return "unknown";
}

bool is_terminal(JobState s) {
  return s != JobState::Queued && s != JobState::Running;
}

programs::ProgramSpec resolve_program(const JobRequest& req) {
  if (req.kind == "builtin") {
    auto it = builtin_factories().find(req.source);
    if (it == builtin_factories().end())
      support::fail_stage(support::Stage::Loader, DiagCode::BadFieldValue,
                          req.name,
                          str::cat("unknown builtin program '", req.source,
                                   "' (expected a Table-II name)"));
    programs::ProgramSpec spec = it->second();
    if (!req.name.empty()) spec.name = req.name;
    return spec;
  }
  // Both arms are views: a "job" : req.name conditional would build a
  // temporary std::string that dies before the loaders read the view.
  const std::string_view default_name =
      req.name.empty() ? std::string_view("job") : std::string_view(req.name);
  if (req.kind == "pir")
    return privanalyzer::load_program(req.source, default_name);
  if (req.kind == "pc")
    return privanalyzer::load_privc_program(req.source, default_name);
  support::fail_stage(support::Stage::Daemon, DiagCode::BadFieldValue,
                      req.name,
                      str::cat("unknown job kind '", req.kind,
                               "' (expected pir, pc, or builtin)"));
}

privanalyzer::PipelineOptions make_pipeline_options(
    const JobRequest& req, std::shared_ptr<rosa::QueryCache> cache,
    const std::atomic<bool>* cancel, double default_deadline_secs) {
  privanalyzer::PipelineOptions opts;
  opts.run_rosa = req.run_rosa;
  opts.rosa_limits.max_states = req.max_states;
  opts.rosa_limits.max_bytes = req.max_bytes;
  opts.rosa_limits.cancel = cancel;
  opts.max_total_seconds =
      req.deadline_secs > 0 ? req.deadline_secs : default_deadline_secs;
  if (req.use_cache) opts.rosa_cache_instance = std::move(cache);
  auto mode = privanalyzer::parse_filter_mode(req.filters);
  if (!mode)
    support::fail_stage(support::Stage::Daemon, DiagCode::BadFieldValue,
                        req.name,
                        str::cat("unknown filters mode '", req.filters,
                                 "' (expected off, report, or enforce)"));
  opts.filters = *mode;
  return opts;
}

JobOutcome run_job(const JobRequest& req,
                   std::shared_ptr<rosa::QueryCache> cache,
                   const std::atomic<bool>* cancel,
                   double default_deadline_secs) {
  // try_analyze_program never throws, but resolve_program can (bad kind,
  // unknown builtin, malformed source) — fold those into a Failed analysis
  // the same way try_analyze_file does, so no request kills the worker.
  ProgramAnalysis analysis;
  try {
    programs::ProgramSpec spec = resolve_program(req);
    privanalyzer::PipelineOptions opts = make_pipeline_options(
        req, std::move(cache), cancel, default_deadline_secs);
    analysis = privanalyzer::try_analyze_program(spec, opts);
  } catch (const std::exception& e) {
    analysis.program = req.name.empty() ? "job" : req.name;
    analysis.status = AnalysisStatus::Failed;
    analysis.diagnostics.push_back(
        support::diagnostic_from_exception(e, support::Stage::Daemon,
                                           analysis.program));
  }

  JobOutcome out;
  if (cancel && cancel->load(std::memory_order_relaxed)) {
    out.state = JobState::Cancelled;
  } else if (has_diag(analysis, DiagCode::DeadlineExceeded)) {
    out.state = JobState::Timeout;
  } else {
    out.state = analysis.ok() ? JobState::Done : JobState::Failed;
  }
  // A cancelled job exits all-failed even when its analysis got to finish,
  // exactly like one cancelled before it started.
  out.exit_code = analysis.ok() && out.state != JobState::Cancelled
                      ? privanalyzer::kExitOk
                      : privanalyzer::kExitAllFailed;
  out.body = render_job_result(analysis);
  return out;
}

std::string render_job_result(const ProgramAnalysis& analysis) {
  std::string out;
  str::append(out, "program ", analysis.program, "\nstatus ",
              privanalyzer::analysis_status_name(analysis.status), " exit ",
              analysis.exit_code, '\n');
  if (!analysis.diagnostics.empty())
    out += support::render_diagnostics(analysis.diagnostics);
  for (std::size_t i = 0; i < analysis.chrono.rows.size(); ++i) {
    const chronopriv::EpochRow& row = analysis.chrono.rows[i];
    str::append(out, "epoch ", row.name, " permitted=");
    row.key.permitted.append_to(out);
    out += " creds=";
    row.key.creds.append_to(out);
    str::append(out, " instructions=", row.instructions, " fraction=",
                str::fixed(row.fraction, 6), '\n');
    if (i < analysis.verdicts.size()) {
      const attacks::EpochVerdicts& v = analysis.verdicts[i];
      out += "verdicts ";
      for (std::size_t a = 0; a < v.verdicts.size(); ++a)
        out.push_back(attacks::cell_symbol(v.verdicts[a]));
      out.push_back('\n');
      for (std::size_t a = 0; a < v.results.size(); ++a)
        for (const rosa::Action& act : v.results[a].witness) {
          str::append(out, "w ", row.name, " attack", a + 1, ' ');
          act.append_to(out);
          out.push_back('\n');
        }
    }
  }
  if (!analysis.verdicts.empty())
    for (std::size_t a = 0; a < attacks::modeled_attacks().size(); ++a)
      str::append(out, "vulnerable attack", a + 1, ' ',
                  str::fixed(analysis.vulnerable_fraction(a), 6), '\n');
  if (!analysis.filter_report.empty()) {
    const std::size_t surface =
        analysis.filter_report.program_syscalls.size();
    for (std::size_t i = 0; i < analysis.filter_report.epochs.size(); ++i) {
      const filters::EpochFilter& e = analysis.filter_report.epochs[i];
      str::append(out, "filter ", e.epoch, " conservative=",
                  e.conservative.size(), " refined=", e.refined.size(),
                  " surface=", surface, " reduced=",
                  e.conservative.size() < surface ? 1 : 0, '\n');
      if (i < analysis.filtered_verdicts.size()) {
        str::append(out, "fverdicts ", e.epoch, ' ');
        for (attacks::CellVerdict v : analysis.filtered_verdicts[i].verdicts)
          out.push_back(attacks::cell_symbol(v));
        out.push_back('\n');
      }
    }
    if (analysis.filter_violations > 0)
      str::append(out, "filter_violations ", analysis.filter_violations, '\n');
    if (!analysis.filtered_verdicts.empty())
      for (std::size_t a = 0; a < attacks::modeled_attacks().size(); ++a)
        str::append(out, "filtered_vulnerable attack", a + 1, ' ',
                    str::fixed(analysis.filtered_vulnerable_fraction(a), 6),
                    '\n');
  }
  return out;
}

}  // namespace pa::daemon

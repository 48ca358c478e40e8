// Job lifecycle for privanalyzerd: a JobRequest off the wire becomes one
// exception-isolated trip through the standard pipeline
// (privanalyzer::try_analyze_program), classified into a terminal JobState
// and rendered as deterministic text.
//
// The rendering is the daemon's differential-test contract: it contains
// everything analysis-relevant (status, exit code, diagnostics, the epoch
// table, the verdict matrix, witnesses, per-attack vulnerable fractions)
// and nothing run-relative (no wall-clock, no cache hit/miss counters), so
// a daemon job, a warm-cache daemon job, and a one-shot CLI run of the same
// inputs render bit-identical bodies.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "daemon/proto.h"
#include "privanalyzer/pipeline.h"

namespace pa::daemon {

enum class JobState {
  Queued,
  Running,
  Done,       // pipeline completed (possibly with warning diagnostics)
  Failed,     // a stage failed; the body's diagnostics say why
  Cancelled,  // client Cancel or server drain interrupted it
  Timeout,    // the per-job deadline expired mid-matrix
  Rejected,   // admission control refused it (never ran)
};

std::string_view job_state_name(JobState s);
bool is_terminal(JobState s);

/// Resolve a request's program: "builtin" looks up the Table-II factories
/// (passwd, su, ping, thttpd, sshd), "pir"/"pc" parse `source` through the
/// standard loader. Throws (pa::Error / StageError) on unknown kinds,
/// unknown builtins, or malformed sources — callers isolate via run_job.
programs::ProgramSpec resolve_program(const JobRequest& req);

/// The PipelineOptions a request maps to. `cache` (may be null) is the
/// daemon's resident multi-tenant verdict cache; it is attached only when
/// the request opted in. `cancel` is the per-job cooperative cancel flag,
/// wired into rosa::SearchLimits, from which the pipeline also hands it to
/// ChronoPriv: Cancel frames and abort-shutdown stop the search at its next
/// frontier pop and the measured execution within one 2^16-instruction
/// turn. `default_deadline_secs` applies when the request did not set its
/// own budget.
privanalyzer::PipelineOptions make_pipeline_options(
    const JobRequest& req, std::shared_ptr<rosa::QueryCache> cache,
    const std::atomic<bool>* cancel, double default_deadline_secs);

struct JobOutcome {
  JobState state = JobState::Failed;
  int exit_code = privanalyzer::kExitAllFailed;
  std::string body;
};

/// Execute one job end to end; never throws. A loader/pipeline failure (or
/// an injected fault) becomes state Failed with the diagnostic in the body,
/// whose status line carries the outcome's exit code;
/// a tripped `cancel` becomes Cancelled, with kExitAllFailed even when the
/// analysis finished (one cancelled while interpreting reports no epochs);
/// an expired deadline becomes Timeout.
JobOutcome run_job(const JobRequest& req,
                   std::shared_ptr<rosa::QueryCache> cache,
                   const std::atomic<bool>* cancel,
                   double default_deadline_secs);

/// The deterministic result body (see the file comment for what it
/// deliberately excludes).
std::string render_job_result(const privanalyzer::ProgramAnalysis& analysis);

}  // namespace pa::daemon

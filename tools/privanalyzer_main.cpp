// The `privanalyzer` command-line tool: run the full pipeline on one or more
// PrivIR/PrivC program files.
//
//   privanalyzer prog.pir [more.pir ...] [options]
//     --no-rosa            ChronoPriv epochs only (skip attack analysis)
//     --max-states N       ROSA search budget per query (default 2000000)
//     --max-bytes N        ROSA memory budget per query in arena bytes
//                          (default unlimited; exceeded searches report as
//                          Timeout like exhausted state budgets)
//     --deadline SECS      pipeline-wide wall-clock budget for each
//                          program's query matrix; expired cells report as
//                          Timeout and a warning diagnostic is attached
//     --stats              print per-program ROSA search statistics
//                          (states, transitions, dedup hits, hash
//                          collisions, peak frontier, cache hits/misses,
//                          wall time)
//     --rosa-cache FILE    persistent ROSA verdict cache: load FILE before
//                          the query matrix (corrupt/stale files are ignored
//                          with a warning) and atomically rewrite it after,
//                          so repeat runs skip unchanged searches entirely
//     --no-rosa-cache      disable the batch's shared ROSA verdict cache
//                          (on by default; cached runs are bit-identical,
//                          this is for A/B measurement)
//     --attacker MODEL     full | cfi-ordered | fixed-args: the attacker of
//                          every query, in the baseline and the filtered
//                          matrix alike (default full, the paper's model)
//     --print-ir           dump the transformed (post-AutoPriv) program
//     --indirect-calls M   indirect-call resolution for AutoPriv (and
//                          --lint): conservative (every address-taken
//                          function, the paper's AutoPriv), refined
//                          (function-pointer propagation + arity filter;
//                          always a subset), assume-none (unsound ablation)
//     --assume-no-indirect alias for --indirect-calls assume-none
//     --lint               run the PrivLint passes instead of the pipeline;
//                          prints one report per program. Exit codes: 0 all
//                          programs clean, 1 none clean, 3 some clean.
//                          Lint defaults to refined indirect calls unless
//                          --indirect-calls says otherwise.
//     --lint-json          as --lint, but emit a JSON array on stdout
//     --filters MODE       EpochFilter allowlists: off (default) | report
//                          (synthesize per-epoch syscall filters + decide
//                          the attack matrix against them, print the
//                          EpochFilter block) | enforce (as report, but the
//                          measured run is replayed under kernel-side
//                          filter enforcement; conservative filters are
//                          provably a no-op for legitimate runs)
//     --filter-action A    what an enforced filter does on a denied
//                          syscall: eperm (default; dispatch returns
//                          -EPERM) | kill (SIGSYS-style process kill,
//                          exit code 128+31)
//     --filters-json FILE  write the per-program filter reports as a JSON
//                          array to FILE ('-' = stdout); format documented
//                          in docs/formats.md
//
// Batch runs are fault-isolated: a program that fails to load, verify, or
// analyze is reported on stderr with its structured diagnostics and the
// remaining programs still run. Exit codes: 0 = every program analyzed,
// 1 = every program failed, 2 = usage error, 3 = partial failure (some
// programs analyzed, some failed), 4 = interrupted (SIGINT/SIGTERM).
//
// SIGINT/SIGTERM trigger cooperative cancellation, not _exit: the flag is
// threaded into every ROSA search (rosa::SearchLimits::cancel) and from
// there into ChronoPriv's interpreter, so in-flight searches stop at their
// next frontier pop, a program still interpreting stops within one turn of
// 2^16 instructions, the persistent --rosa-cache file
// keeps the atomic checkpoints already written for completed programs, and
// the batch exits with the distinct code 4.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>

#include <optional>

#include "ir/printer.h"
#include "chronopriv/exposure.h"
#include "lint/lint.h"
#include "privanalyzer/advisor.h"
#include "os/worldfile.h"
#include "privanalyzer/export.h"
#include "privanalyzer/loader.h"
#include "privanalyzer/render.h"
#include "support/diagnostics.h"
#include "support/error.h"
#include "support/str.h"

using namespace pa;

namespace {

/// Set by the SIGINT/SIGTERM handler; polled by every ROSA search and by
/// ChronoPriv's interpreter through SearchLimits::cancel, and by the batch
/// loop between programs.
std::atomic<bool> g_interrupted{false};

void handle_interrupt(int) { g_interrupted.store(true); }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_interrupt;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <prog.pir> [more programs...] [--no-rosa] [--max-states N]\n"
               "       [--max-bytes N] [--deadline SECS]\n"
               "       [--attacker full|cfi-ordered|fixed-args] [--print-ir]\n"
               "       [--indirect-calls conservative|refined|assume-none]\n"
               "       [--assume-no-indirect] [--world-file world.world]\n"
               "       [--simplify] [--stats] [--rosa-cache FILE]\n"
               "       [--no-rosa-cache] [--lint] [--lint-json]\n"
               "       [--filters off|report|enforce] [--filter-action "
               "eperm|kill]\n"
               "       [--filters-json FILE]\n"
               "exit codes: 0 ok, 1 all programs failed, 2 usage, 3 partial "
               "failure,\n             4 interrupted (SIGINT/SIGTERM)\n";
  return privanalyzer::kExitUsage;
}

/// A numeric flag value the strict parsers (support/str.h) rejected: say
/// which, then print the usage text.
int bad_value(const char* argv0, const std::string& flag, const char* value) {
  std::cerr << "error: bad value '" << value << "' for " << flag << "\n";
  return usage(argv0);
}

std::optional<ir::IndirectCallPolicy> parse_policy(const std::string& m) {
  if (m == "conservative") return ir::IndirectCallPolicy::Conservative;
  if (m == "refined") return ir::IndirectCallPolicy::Refined;
  if (m == "assume-none") return ir::IndirectCallPolicy::AssumeNone;
  std::cerr << "error: bad indirect-call policy '" << m
            << "' (want conservative|refined|assume-none)\n";
  return std::nullopt;
}

/// `--lint` / `--lint-json` mode: load + lint each program, no pipeline.
/// A program counts as failed if it does not load or has any finding.
int run_lint_batch(const std::vector<std::string>& paths,
                   const lint::LintOptions& lopts, bool json) {
  std::vector<lint::LintReport> reports;
  std::size_t failed = 0;
  for (const std::string& path : paths) {
    try {
      programs::ProgramSpec spec = privanalyzer::load_program_file(path);
      reports.push_back(lint::run_lints(spec, lopts));
      if (!reports.back().clean()) ++failed;
    } catch (const std::exception& e) {
      ++failed;
      std::cerr << support::diagnostic_from_exception(
                       e, support::Stage::Loader, path)
                       .to_string()
                << "\n";
    }
  }
  if (json) std::cout << privanalyzer::lint_reports_to_json(reports);
  else std::cout << privanalyzer::render_lint_reports(reports);
  if (failed == 0) return privanalyzer::kExitOk;
  if (failed == paths.size()) return privanalyzer::kExitAllFailed;
  return privanalyzer::kExitPartialFailure;
}

/// Run + render one program; load/analyze failures are folded into the
/// returned analysis (never thrown) so the batch loop keeps going.
privanalyzer::ProgramAnalysis run_one(
    const std::string& path, const privanalyzer::PipelineOptions& opts,
    bool print_ir, bool print_stats) {
  programs::ProgramSpec spec;
  try {
    spec = privanalyzer::load_program_file(path);
  } catch (const std::exception& e) {
    privanalyzer::ProgramAnalysis failed;
    failed.status = privanalyzer::AnalysisStatus::Failed;
    std::string base = path;
    if (auto slash = base.find_last_of('/'); slash != std::string::npos)
      base = base.substr(slash + 1);
    failed.diagnostics.push_back(support::diagnostic_from_exception(
        e, support::Stage::Loader, base));
    failed.program = failed.diagnostics.back().program;
    std::cerr << privanalyzer::render_analysis_diagnostics(failed);
    return failed;
  }

  privanalyzer::ProgramAnalysis analysis =
      privanalyzer::try_analyze_program(spec, opts);
  if (!analysis.ok()) {
    std::cerr << privanalyzer::render_analysis_diagnostics(analysis);
    return analysis;
  }

  std::cout << "Loaded " << spec.name << " ("
            << spec.module.countable_instructions()
            << " static instructions), launch permitted {"
            << spec.launch_permitted.to_string() << "}\n\n";
  std::cout << analysis.autopriv_report.to_string() << "\n";
  if (print_ir)
    std::cout << "=== transformed IR ===\n"
              << ir::print(privanalyzer::transformed_module(spec, opts.autopriv))
              << "\n";
  std::cout << analysis.chrono.to_string() << "\n";
  std::cout << chronopriv::render_exposure(analysis.chrono) << "\n";
  std::cout << privanalyzer::render_advice(privanalyzer::advise(spec, analysis))
            << "\n";
  if (opts.run_rosa) {
    std::cout << privanalyzer::render_attack_table() << "\n"
              << privanalyzer::render_efficacy_table(
                     {analysis},
                     str::cat("Efficacy (attacker: ",
                              rosa::attacker_model_name(opts.attacker), ")"));
    if (print_stats)
      std::cout << "\n" << privanalyzer::render_search_stats({analysis});
  }
  if (!analysis.filter_report.empty())
    std::cout << "\n" << privanalyzer::render_filter_report({analysis});
  // Degraded-but-ok analyses (e.g. deadline warnings) report on stderr too.
  std::cerr << privanalyzer::render_analysis_diagnostics(analysis);
  return analysis;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  install_signal_handlers();
  std::vector<std::string> paths;
  privanalyzer::PipelineOptions opts;
  bool print_ir = false;
  bool print_stats = false;
  bool use_cache = true;
  bool lint_mode = false;
  bool lint_json = false;
  std::string filters_json_file;
  std::optional<ir::IndirectCallPolicy> indirect_override;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--no-rosa") {
      opts.run_rosa = false;
    } else if (arg == "--stats") {
      print_stats = true;
    } else if (arg == "--deadline" && i + 1 < argc) {
      const auto secs = str::parse_seconds(argv[++i]);
      if (!secs) return bad_value(argv[0], arg, argv[i]);
      opts.max_total_seconds = *secs;
    } else if (arg == "--rosa-cache" && i + 1 < argc) {
      opts.rosa_cache_file = argv[++i];
    } else if (arg == "--no-rosa-cache") {
      use_cache = false;
    } else if (arg == "--simplify") {
      opts.simplify_after_autopriv = true;
    } else if (arg == "--print-ir") {
      print_ir = true;
    } else if (arg == "--assume-no-indirect") {
      indirect_override = ir::IndirectCallPolicy::AssumeNone;
    } else if (arg == "--indirect-calls" && i + 1 < argc) {
      indirect_override = parse_policy(argv[++i]);
      if (!indirect_override) return usage(argv[0]);
    } else if (arg.rfind("--indirect-calls=", 0) == 0) {
      indirect_override = parse_policy(arg.substr(strlen("--indirect-calls=")));
      if (!indirect_override) return usage(argv[0]);
    } else if (arg == "--lint") {
      lint_mode = true;
    } else if (arg == "--lint-json") {
      lint_mode = true;
      lint_json = true;
    } else if (arg == "--filters" && i + 1 < argc) {
      auto mode = privanalyzer::parse_filter_mode(argv[++i]);
      if (!mode) return usage(argv[0]);
      opts.filters = *mode;
    } else if (arg.rfind("--filters=", 0) == 0) {
      auto mode =
          privanalyzer::parse_filter_mode(arg.substr(strlen("--filters=")));
      if (!mode) return usage(argv[0]);
      opts.filters = *mode;
    } else if (arg == "--filter-action" && i + 1 < argc) {
      std::string a = argv[++i];
      if (a == "eperm") opts.filter_action = os::FilterAction::Eperm;
      else if (a == "kill") opts.filter_action = os::FilterAction::Kill;
      else return usage(argv[0]);
    } else if (arg == "--filters-json" && i + 1 < argc) {
      filters_json_file = argv[++i];
    } else if (arg == "--world-file" && i + 1 < argc) {
      std::string wpath = argv[++i];
      opts.world_factory = [wpath] { return os::world_from_file(wpath); };
    } else if (arg == "--max-states" && i + 1 < argc) {
      const auto n = str::parse_u64(argv[++i], SIZE_MAX);
      if (!n) return bad_value(argv[0], arg, argv[i]);
      opts.rosa_limits.max_states = static_cast<std::size_t>(*n);
    } else if (arg == "--max-bytes" && i + 1 < argc) {
      const auto n = str::parse_u64(argv[++i], SIZE_MAX);
      if (!n) return bad_value(argv[0], arg, argv[i]);
      opts.rosa_limits.max_bytes = static_cast<std::size_t>(*n);
    } else if (arg == "--attacker" && i + 1 < argc) {
      std::string m = argv[++i];
      if (m == "full") opts.attacker = rosa::AttackerModel::Full;
      else if (m == "cfi-ordered")
        opts.attacker = rosa::AttackerModel::CfiOrdered;
      else if (m == "fixed-args")
        opts.attacker = rosa::AttackerModel::FixedArgs;
      else return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(argv[0]);
  if (indirect_override)
    opts.autopriv.indirect_calls = *indirect_override;
  if (lint_mode) {
    lint::LintOptions lopts;  // defaults to refined indirect calls
    if (indirect_override) lopts.indirect_calls = *indirect_override;
    return run_lint_batch(paths, lopts, lint_json);
  }
  if (!use_cache && !opts.rosa_cache_file.empty()) {
    std::cerr << "error: --rosa-cache and --no-rosa-cache conflict\n";
    return usage(argv[0]);
  }
  // --filters-json without an explicit mode implies report (otherwise the
  // export would always be an empty array).
  if (!filters_json_file.empty() &&
      opts.filters == privanalyzer::FilterMode::Off)
    opts.filters = privanalyzer::FilterMode::Report;
  // One verdict cache for the whole batch, so program N+1 reuses program
  // N's searches (and the persistent file, when given, is shared).
  if (use_cache)
    opts.rosa_cache_instance = std::make_shared<rosa::QueryCache>();

  // Cooperative interruption: every search polls this flag at its frontier
  // pops, so Ctrl-C unwinds through the normal return path (per-program
  // cache flushes) instead of killing the process.
  opts.rosa_limits.cancel = &g_interrupted;

  // Per-program isolation: one bad file reports its diagnostics and the
  // rest of the batch still runs; the exit code distinguishes partial from
  // total failure.
  std::vector<privanalyzer::ProgramAnalysis> analyses;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (g_interrupted.load()) break;
    if (i > 0) std::cout << "\n" << std::string(72, '=') << "\n\n";
    analyses.push_back(
        run_one(paths[i], opts, print_ir, print_stats));
  }
  if (g_interrupted.load()) {
    std::cerr << "interrupted: cancelled in-flight searches and skipped "
              << (paths.size() - analyses.size())
              << " remaining program(s) (exit code "
              << privanalyzer::kExitInterrupted << ")\n";
    return privanalyzer::kExitInterrupted;
  }
  if (!filters_json_file.empty()) {
    const std::string json = privanalyzer::filters_to_json(analyses);
    if (filters_json_file == "-") {
      std::cout << json;
    } else {
      std::ofstream out(filters_json_file);
      out << json;
      if (!out) {
        std::cerr << "error: cannot write " << filters_json_file << "\n";
        return privanalyzer::kExitUsage;
      }
    }
  }
  const int code =
      privanalyzer::batch_exit_code(analyses, /*empty_is_failure=*/true);
  if (code == privanalyzer::kExitPartialFailure)
    std::cerr << "warning: some programs failed; see diagnostics above "
                 "(exit code " << code << ")\n";
  return code;
}

#include "privanalyzer/render.h"

#include <sstream>

#include "programs/diff.h"
#include "support/str.h"

namespace pa::privanalyzer {

std::string render_attack_table() {
  std::ostringstream os;
  os << "Table I: Modeled Attacks\n";
  for (const attacks::AttackInfo& a : attacks::modeled_attacks())
    os << "  " << static_cast<int>(a.id) << ". " << str::pad_right(a.name, 14)
       << a.description << "\n";
  return os.str();
}

std::string render_program_table(
    const std::vector<programs::ProgramSpec>& specs) {
  std::ostringstream os;
  os << "Table II: Programs for Experiments\n";
  os << "  " << str::pad_right("Program", 10) << str::pad_left("Model-insts", 12)
     << "  Description\n";
  for (const programs::ProgramSpec& s : specs)
    os << "  " << str::pad_right(s.name, 10)
       << str::pad_left(std::to_string(s.module.countable_instructions()), 12)
       << "  " << s.description << "\n";
  return os.str();
}

std::string render_efficacy_table(const std::vector<ProgramAnalysis>& analyses,
                                  const std::string& title) {
  std::ostringstream os;
  os << title << "\n";
  os << "  " << str::pad_right("Name", 18) << str::pad_right("UID(r,e,s)", 16)
     << str::pad_right("GID(r,e,s)", 16)
     << str::pad_left("Instructions", 16) << "  " << str::pad_left("%", 8)
     << "  1 2 3 4   Privileges\n";
  for (const ProgramAnalysis& a : analyses) {
    for (std::size_t i = 0; i < a.chrono.rows.size(); ++i) {
      const chronopriv::EpochRow& row = a.chrono.rows[i];
      os << "  " << str::pad_right(row.name, 18)
         << str::pad_right(row.key.creds.uid.to_string(), 16)
         << str::pad_right(row.key.creds.gid.to_string(), 16)
         << str::pad_left(
                str::with_commas(static_cast<long long>(row.instructions)), 16)
         << "  " << str::pad_left(str::percent(row.fraction), 8) << "  ";
      if (i < a.verdicts.size()) {
        for (attacks::CellVerdict v : a.verdicts[i].verdicts)
          os << attacks::cell_symbol(v) << ' ';
      } else {
        os << "- - - - ";
      }
      os << "  " << row.key.permitted.to_string() << "\n";
    }
    ExposureSummary s = exposure_of(a);
    os << "  -> " << a.program
       << ": devmem read/write feasible for " << str::percent(s.devmem_read)
       << " / " << str::percent(s.devmem_write)
       << " of execution; any attack " << str::percent(s.any_attack) << "\n";
  }
  return os.str();
}

std::string render_refactor_diff_table() {
  std::ostringstream os;
  os << "Table IV: Instructions Changed for Refactored Programs\n";
  os << "  " << str::pad_right("Program", 10) << str::pad_right("Group", 10)
     << str::pad_left("Added", 8) << str::pad_left("Deleted", 9) << "\n";
  struct Pair {
    const char* name;
    programs::ProgramSpec before, after;
  };
  Pair pairs[] = {
      {"passwd", programs::make_passwd(), programs::make_passwd_refactored()},
      {"su", programs::make_su(), programs::make_su_refactored()},
  };
  for (const Pair& p : pairs) {
    for (const auto& [group, dc] :
         programs::diff_programs(p.before.module, p.after.module)) {
      os << "  " << str::pad_right(p.name, 10) << str::pad_right(group, 10)
         << str::pad_left(std::to_string(dc.added), 8)
         << str::pad_left(std::to_string(dc.deleted), 9) << "\n";
    }
  }
  return os.str();
}

std::string render_search_stats(const std::vector<ProgramAnalysis>& analyses) {
  std::ostringstream os;
  os << "ROSA search statistics (per program, summed over epoch x attack "
        "queries)\n";
  os << "  " << str::pad_right("Program", 14) << str::pad_left("Queries", 9)
     << str::pad_left("States", 12) << str::pad_left("Transitions", 13)
     << str::pad_left("Dedup", 10) << str::pad_left("Collisions", 12)
     << str::pad_left("PeakFront", 11) << str::pad_left("PeakB", 12)
     << str::pad_left("B/St", 8) << str::pad_left("FSaved", 8)
     << str::pad_left("FStates", 12) << str::pad_left("Proved", 8)
     << str::pad_left("Hits", 7) << str::pad_left("Miss", 7)
     << str::pad_left("Time", 10) << "\n";
  for (const ProgramAnalysis& a : analyses) {
    const rosa::SearchStats s = a.search_stats();
    const std::size_t queries = (a.verdicts.size() +
                                 a.filtered_verdicts.size()) *
                                attacks::modeled_attacks().size();
    os << "  " << str::pad_right(a.program, 14)
       << str::pad_left(std::to_string(queries), 9)
       << str::pad_left(str::with_commas(static_cast<long long>(s.states)), 12)
       << str::pad_left(
              str::with_commas(static_cast<long long>(s.transitions)), 13)
       << str::pad_left(
              str::with_commas(static_cast<long long>(s.dedup_hits)), 10)
       << str::pad_left(std::to_string(s.hash_collisions), 12)
       << str::pad_left(
              str::with_commas(static_cast<long long>(s.peak_frontier)), 11)
       << str::pad_left(
              str::with_commas(static_cast<long long>(s.peak_bytes)), 12)
       << str::pad_left(str::fixed(s.bytes_per_state(), 1), 8)
       << str::pad_left(std::to_string(s.fused_searches_saved), 8)
       << str::pad_left(
              str::with_commas(static_cast<long long>(s.fused_world_states)),
              12)
       << str::pad_left(std::to_string(s.proved), 8)
       << str::pad_left(std::to_string(s.cache_hits), 7)
       << str::pad_left(std::to_string(s.cache_misses), 7)
       << str::pad_left(str::cat(str::fixed(s.seconds, 3), "s"), 10) << "\n";
  }
  return os.str();
}

std::string render_lint_reports(const std::vector<lint::LintReport>& reports) {
  std::ostringstream os;
  int errors = 0;
  int warnings = 0;
  std::size_t clean = 0;
  for (const lint::LintReport& r : reports) {
    os << r.to_string();
    errors += r.errors();
    warnings += r.warnings();
    if (r.clean()) ++clean;
  }
  os << reports.size() << " program(s): " << clean << " clean, " << errors
     << " error(s), " << warnings << " warning(s)\n";
  return os.str();
}

std::string render_filter_report(const std::vector<ProgramAnalysis>& analyses) {
  std::ostringstream os;
  bool any = false;
  for (const ProgramAnalysis& a : analyses) {
    if (a.filter_report.empty()) continue;
    if (!any)
      os << "EpochFilter allowlists (conservative = enforceable closure, "
            "refined = funcptr-tightened subset)\n";
    any = true;
    os << "  " << str::pad_right("Epoch", 18) << str::pad_left("Cons", 6)
       << str::pad_left("Refd", 6) << str::pad_left("Surface", 9)
       << "  Reduced  1 2 3 4 (filtered)\n";
    const std::size_t surface = a.filter_report.program_syscalls.size();
    for (std::size_t i = 0; i < a.filter_report.epochs.size(); ++i) {
      const filters::EpochFilter& e = a.filter_report.epochs[i];
      os << "  " << str::pad_right(e.epoch, 18)
         << str::pad_left(std::to_string(e.conservative.size()), 6)
         << str::pad_left(std::to_string(e.refined.size()), 6)
         << str::pad_left(std::to_string(surface), 9) << "  "
         << str::pad_right(e.conservative.size() < surface ? "yes" : "no", 7)
         << "  ";
      if (i < a.filtered_verdicts.size()) {
        for (attacks::CellVerdict v : a.filtered_verdicts[i].verdicts)
          os << attacks::cell_symbol(v) << ' ';
      } else {
        os << "- - - - ";
      }
      os << "\n";
    }
    os << "  -> " << a.program << ": " << a.filter_report.reduced_epochs()
       << "/" << a.filter_report.epochs.size() << " epoch(s) reduced";
    if (a.filter_violations > 0)
      os << "; " << a.filter_violations << " VIOLATION(S)";
    if (!a.filtered_verdicts.empty()) {
      os << "; vulnerable fraction per attack:";
      for (std::size_t k = 0; k < attacks::modeled_attacks().size(); ++k)
        os << " " << str::percent(a.vulnerable_fraction(k)) << "->"
           << str::percent(a.filtered_vulnerable_fraction(k));
    }
    os << "\n";
  }
  return os.str();
}

std::string render_analysis_diagnostics(const ProgramAnalysis& analysis) {
  std::ostringstream os;
  if (analysis.ok() && analysis.diagnostics.empty()) return "";
  os << analysis.program << ": analysis "
     << analysis_status_name(analysis.status) << "\n";
  for (const support::Diagnostic& d : analysis.diagnostics)
    os << "  " << d.to_string() << "\n";
  return os.str();
}

}  // namespace pa::privanalyzer

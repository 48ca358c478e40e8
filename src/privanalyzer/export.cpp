#include "privanalyzer/export.h"

#include <sstream>

#include "support/str.h"

namespace pa::privanalyzer {
namespace {

/// CSV-quote a field (the capability lists contain commas).
std::string q(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  return out + "\"";
}

/// JSON string literal (quotes, backslashes, control chars escaped).
std::string j(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void finding_to_json(std::ostringstream& os, const lint::Finding& f) {
  os << "{\"code\":" << j(std::string(support::diag_code_name(f.code)))
     << ",\"severity\":"
     << j(std::string(support::severity_name(f.severity)))
     << ",\"function\":" << j(f.function) << ",\"block\":" << f.block
     << ",\"instr\":" << f.instr << ",\"caps\":" << j(f.caps.to_string())
     << ",\"message\":" << j(f.message) << ",\"hint\":" << j(f.hint) << "}";
}

}  // namespace

std::string lint_reports_to_json(const std::vector<lint::LintReport>& reports) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const lint::LintReport& r = reports[i];
    if (i) os << ",";
    os << "\n {\"program\":" << j(r.program)
       << ",\"clean\":" << (r.clean() ? "true" : "false")
       << ",\"errors\":" << r.errors() << ",\"warnings\":" << r.warnings()
       << ",\"findings\":[";
    for (std::size_t k = 0; k < r.findings.size(); ++k) {
      if (k) os << ",";
      finding_to_json(os, r.findings[k]);
    }
    os << "],\"suppressed\":[";
    for (std::size_t k = 0; k < r.suppressed.size(); ++k) {
      if (k) os << ",";
      finding_to_json(os, r.suppressed[k]);
    }
    os << "]}";
  }
  os << "\n]\n";
  return os.str();
}

std::string epochs_to_csv(const chronopriv::ChronoReport& report) {
  std::ostringstream os;
  os << "program,epoch,permitted,ruid,euid,suid,rgid,egid,sgid,"
        "instructions,fraction\n";
  for (const chronopriv::EpochRow& row : report.rows) {
    const caps::IdTriple& u = row.key.creds.uid;
    const caps::IdTriple& g = row.key.creds.gid;
    os << q(report.program) << ',' << q(row.name) << ','
       << q(row.key.permitted.to_string()) << ',' << u.real << ','
       << u.effective << ',' << u.saved << ',' << g.real << ','
       << g.effective << ',' << g.saved << ',' << row.instructions << ','
       << str::fixed(row.fraction, 6) << '\n';
  }
  return os.str();
}

std::string efficacy_to_csv(const std::vector<ProgramAnalysis>& analyses) {
  std::ostringstream os;
  os << "program,epoch,permitted,fraction";
  for (const attacks::AttackInfo& a : attacks::modeled_attacks())
    os << ',' << a.name;
  os << '\n';
  for (const ProgramAnalysis& a : analyses) {
    for (std::size_t i = 0; i < a.chrono.rows.size(); ++i) {
      const chronopriv::EpochRow& row = a.chrono.rows[i];
      os << q(a.program) << ',' << q(row.name) << ','
         << q(row.key.permitted.to_string()) << ','
         << str::fixed(row.fraction, 6);
      for (std::size_t atk = 0; atk < 4; ++atk) {
        os << ',';
        if (i < a.verdicts.size())
          os << attacks::cell_symbol(a.verdicts[i].verdicts[atk]);
      }
      os << '\n';
    }
  }
  return os.str();
}

std::string efficacy_to_markdown(
    const std::vector<ProgramAnalysis>& analyses) {
  std::ostringstream os;
  os << "| epoch | privileges | uid (r,e,s) | gid (r,e,s) | % |";
  for (const attacks::AttackInfo& a : attacks::modeled_attacks())
    os << ' ' << static_cast<int>(a.id) << " |";
  os << "\n|---|---|---|---|---|";
  for (std::size_t atk = 0; atk < attacks::modeled_attacks().size(); ++atk)
    os << "---|";
  os << '\n';
  for (const ProgramAnalysis& a : analyses) {
    for (std::size_t i = 0; i < a.chrono.rows.size(); ++i) {
      const chronopriv::EpochRow& row = a.chrono.rows[i];
      os << "| " << row.name << " | `" << row.key.permitted.to_string()
         << "` | " << row.key.creds.uid.to_string() << " | "
         << row.key.creds.gid.to_string() << " | "
         << str::percent(row.fraction) << " |";
      for (std::size_t atk = 0; atk < 4; ++atk) {
        os << ' ';
        if (i < a.verdicts.size()) {
          switch (a.verdicts[i].verdicts[atk]) {
            case attacks::CellVerdict::Vulnerable: os << "✓"; break;
            case attacks::CellVerdict::Safe: os << "✗"; break;
            case attacks::CellVerdict::Timeout: os << "⏳"; break;
          }
        } else {
          os << "–";
        }
        os << " |";
      }
      os << '\n';
    }
  }
  return os.str();
}

std::string search_stats_to_csv(const std::vector<ProgramAnalysis>& analyses) {
  std::ostringstream os;
  os << "program,epoch,attack,verdict,states,transitions,dedup_hits,"
        "hash_collisions,peak_frontier,peak_bytes,bytes_per_state,"
        "escalations,fused_group_size,fused_searches_saved,"
        "fused_world_states,proved,cache_hits,cache_misses,seconds\n";
  for (const ProgramAnalysis& a : analyses) {
    for (const attacks::EpochVerdicts& ev : a.verdicts) {
      for (std::size_t atk = 0; atk < attacks::modeled_attacks().size();
           ++atk) {
        const rosa::SearchResult& r = ev.results[atk];
        os << q(a.program) << ',' << q(ev.epoch_name) << ','
           << q(attacks::modeled_attacks()[atk].name) << ','
           << attacks::cell_symbol(ev.verdicts[atk]) << ','
           << r.stats.states << ',' << r.stats.transitions << ','
           << r.stats.dedup_hits << ',' << r.stats.hash_collisions << ','
           << r.stats.peak_frontier << ',' << r.stats.peak_bytes << ','
           << str::fixed(r.stats.bytes_per_state(), 1) << ','
           << r.stats.escalations << ','
           << r.stats.fused_group_size << ','
           << r.stats.fused_searches_saved << ','
           << r.stats.fused_world_states << ',' << r.stats.proved << ','
           << r.stats.cache_hits << ',' << r.stats.cache_misses << ','
           << str::fixed(r.stats.seconds, 6) << '\n';
      }
    }
  }
  return os.str();
}

std::string filters_to_csv(const std::vector<ProgramAnalysis>& analyses) {
  std::ostringstream os;
  os << "program,epoch,conservative_size,refined_size,surface,reduced,"
        "baseline_vulnerable,filtered_vulnerable\n";
  for (const ProgramAnalysis& a : analyses) {
    if (a.filter_report.empty()) continue;
    const std::size_t surface = a.filter_report.program_syscalls.size();
    for (std::size_t i = 0; i < a.filter_report.epochs.size(); ++i) {
      const filters::EpochFilter& e = a.filter_report.epochs[i];
      std::string baseline;
      std::string filtered;
      for (std::size_t atk = 0; atk < attacks::modeled_attacks().size();
           ++atk) {
        baseline += i < a.verdicts.size()
                        ? attacks::cell_symbol(a.verdicts[i].verdicts[atk])
                        : '-';
        filtered +=
            i < a.filtered_verdicts.size()
                ? attacks::cell_symbol(a.filtered_verdicts[i].verdicts[atk])
                : '-';
      }
      os << q(a.program) << ',' << q(e.epoch) << ',' << e.conservative.size()
         << ',' << e.refined.size() << ',' << surface << ','
         << (e.conservative.size() < surface ? 1 : 0) << ',' << q(baseline)
         << ',' << q(filtered) << '\n';
    }
  }
  return os.str();
}

std::string filters_to_json(const std::vector<ProgramAnalysis>& analyses) {
  std::string out = "[";
  bool first = true;
  for (const ProgramAnalysis& a : analyses) {
    if (a.filter_report.empty()) continue;
    if (!first) out += ",";
    first = false;
    out += "\n ";
    out += filters::filters_to_json(a.filter_report);
  }
  out += "\n]\n";
  return out;
}

}  // namespace pa::privanalyzer

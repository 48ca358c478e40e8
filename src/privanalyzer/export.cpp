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

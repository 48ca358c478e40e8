#include "core/expected.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace pabench {
namespace {

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line_no) + ": " + what);
}

long parse_long(std::string_view s, std::size_t line_no) {
  const std::string str(s);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(str.c_str(), &end, 10);
  if (str.empty() || *end != '\0' || errno != 0)
    fail(line_no, "not an integer: '" + str + "'");
  return v;
}

std::uint64_t parse_count(std::string_view s, std::size_t line_no) {
  const long v = parse_long(s, line_no);
  if (v < 0) fail(line_no, "negative count: '" + std::string(s) + "'");
  return static_cast<std::uint64_t>(v);
}

// Percent with at most two decimals in [0, 100].
double parse_pct(std::string_view s, std::size_t line_no) {
  const std::string str(s);
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  const std::size_t dot = str.find('.');
  if (str.empty() || *end != '\0' || !(v >= 0.0 && v <= 100.0) ||
      (dot != std::string::npos && str.size() - dot - 1 > 2))
    fail(line_no, "not a percentage with two decimals: '" + str + "'");
  return v;
}

// 0.01% units, so comparisons are exact integer comparisons.
long long basis_points(double pct) { return std::llround(pct * 100.0); }

}  // namespace

ExpectedFile parse_expected(std::string_view text) {
  ExpectedFile out;
  ExpectedProgram* cur = nullptr;
  bool cur_has_vulnerable = false;
  std::size_t cur_line = 0;

  auto close_program = [&](std::size_t line_no) {
    if (!cur) return;
    if (cur->epochs.empty())
      fail(cur_line, "program '" + cur->name + "' has no epoch lines");
    if (!cur_has_vulnerable)
      fail(line_no, "program '" + cur->name + "' has no vulnerable line");
  };

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    if (std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    const std::vector<std::string_view> f = split_fields(line);
    if (f.empty()) continue;

    if (f[0] == "program") {
      if (f.size() != 4 || f[2] != "exit")
        fail(line_no, "expected 'program <name> exit <code>'");
      close_program(line_no);
      const std::string name(f[1]);
      if (out.count(name)) fail(line_no, "duplicate program '" + name + "'");
      cur = &out[name];
      cur->name = name;
      cur->exit_code = parse_long(f[3], line_no);
      cur_has_vulnerable = false;
      cur_line = line_no;
    } else if (f[0] == "epoch") {
      if (!cur) fail(line_no, "epoch line before any program line");
      if (cur_has_vulnerable)
        fail(line_no, "epoch line after the program's vulnerable line");
      if (f.size() != 4)
        fail(line_no, "expected 'epoch <name> <instructions> <verdicts>'");
      const std::string_view v = f[3];
      if (v.size() != 4 || v.find_first_not_of("VxT") != std::string_view::npos)
        fail(line_no, "verdicts must be four of V/x/T: '" + std::string(v) +
                          "'");
      cur->epochs.push_back(
          EpochOutcome{std::string(f[1]), parse_count(f[2], line_no),
                       std::string(v)});
    } else if (f[0] == "vulnerable") {
      if (!cur) fail(line_no, "vulnerable line before any program line");
      if (cur_has_vulnerable) fail(line_no, "second vulnerable line");
      if (f.size() != 5) fail(line_no, "expected four vulnerable percentages");
      for (std::size_t a = 0; a < 4; ++a)
        cur->vulnerable_pct[a] = parse_pct(f[a + 1], line_no);
      cur_has_vulnerable = true;
    } else {
      fail(line_no, "unknown record '" + std::string(f[0]) + "'");
    }
  }
  close_program(line_no);
  if (out.empty()) throw std::runtime_error("no programs in expected file");
  return out;
}

std::string check_outcome(const ExpectedProgram& want,
                          const ProgramOutcome& got) {
  const std::string& p = want.name;
  if (got.exit_code != want.exit_code)
    return p + ": exit " + std::to_string(got.exit_code) + ", expected " +
           std::to_string(want.exit_code);
  if (got.epochs.size() != want.epochs.size())
    return p + ": " + std::to_string(got.epochs.size()) + " epochs, expected " +
           std::to_string(want.epochs.size());
  for (std::size_t i = 0; i < want.epochs.size(); ++i) {
    const EpochOutcome& w = want.epochs[i];
    const EpochOutcome& g = got.epochs[i];
    if (g.name != w.name || g.instructions != w.instructions ||
        g.verdicts != w.verdicts)
      return p + ": epoch " + std::to_string(i + 1) + " is " + g.name + " " +
             std::to_string(g.instructions) + " " + g.verdicts +
             ", expected " + w.name + " " + std::to_string(w.instructions) +
             " " + w.verdicts;
  }
  for (std::size_t a = 0; a < 4; ++a)
    if (basis_points(got.vulnerable_fraction[a] * 100.0) !=
        basis_points(want.vulnerable_pct[a]))
      return p + ": attack " + std::to_string(a + 1) + " vulnerable " +
             std::to_string(got.vulnerable_fraction[a] * 100.0) +
             "%, expected " + std::to_string(want.vulnerable_pct[a]) + "%";
  return "";
}

std::string check_filtered_monotone(const ProgramOutcome& baseline,
                                    const ProgramOutcome& filtered) {
  if (filtered.epochs.size() != baseline.epochs.size())
    return "filtered matrix has " + std::to_string(filtered.epochs.size()) +
           " epochs, baseline " + std::to_string(baseline.epochs.size());
  for (std::size_t i = 0; i < baseline.epochs.size(); ++i)
    for (std::size_t a = 0; a < 4; ++a)
      if (filtered.epochs[i].verdicts[a] == 'V' &&
          baseline.epochs[i].verdicts[a] != 'V')
        return "filtered " + baseline.epochs[i].name + " attack " +
               std::to_string(a + 1) + " is V but the baseline is not";
  for (std::size_t a = 0; a < 4; ++a)
    if (filtered.vulnerable_fraction[a] > baseline.vulnerable_fraction[a])
      return "filtered attack " + std::to_string(a + 1) +
             " fraction exceeds the baseline";
  return "";
}

}  // namespace pabench

// The hand-written expected-output file (pabench/expected.txt) and the
// checks every benchmark op runs against it.
//
// Format, one record per line; blank lines and '#' comments are ignored:
//
//   program <name> exit <code>
//   epoch <epoch-name> <instructions> <four of V/x/T>
//   vulnerable <pct1> <pct2> <pct3> <pct4>
//
// `epoch` lines list the program's epochs in ChronoPriv row order;
// `vulnerable` gives each attack's vulnerable fraction in percent with two
// decimals (0.01% resolution). Every program needs at least one epoch line
// and exactly one vulnerable line. Anything else is a parse error naming the
// line.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pabench {

struct EpochOutcome {
  std::string name;
  std::uint64_t instructions = 0;
  std::string verdicts;  // four cell symbols, attack 1..4
};

/// What one analysis produced, in the file's terms.
struct ProgramOutcome {
  long exit_code = 0;
  std::vector<EpochOutcome> epochs;
  std::array<double, 4> vulnerable_fraction{};  // 0..1
};

struct ExpectedProgram {
  std::string name;
  long exit_code = 0;
  std::vector<EpochOutcome> epochs;
  std::array<double, 4> vulnerable_pct{};  // 0..100, two decimals
};

using ExpectedFile = std::map<std::string, ExpectedProgram, std::less<>>;

/// Throws std::runtime_error("line N: ...") on malformed input.
ExpectedFile parse_expected(std::string_view text);

/// "" when `got` matches `want` exactly (fractions to 0.01%), else the first
/// difference.
std::string check_outcome(const ExpectedProgram& want,
                          const ProgramOutcome& got);

/// The filtered matrix may only remove vulnerability: no filtered cell is V
/// where the baseline cell is not, and no filtered fraction exceeds the
/// baseline one. "" when monotone, else the first violation.
std::string check_filtered_monotone(const ProgramOutcome& baseline,
                                    const ProgramOutcome& filtered);

}  // namespace pabench

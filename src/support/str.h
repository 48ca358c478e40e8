// Small string utilities (libstdc++ 12 lacks <format>, so we provide
// stream-based helpers instead).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace pa::str {

/// Concatenate all arguments with operator<<.
template <typename... Args>
std::string cat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Split `s` on `sep`, dropping empty fields when `keep_empty` is false.
std::vector<std::string> split(std::string_view s, char sep,
                               bool keep_empty = false);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Render `n` with thousands separators: 62374249 -> "62,374,249".
std::string with_commas(long long n);

/// Render a ratio as a percentage with two decimals: 0.9894 -> "98.94%".
std::string percent(double ratio);

/// Fixed-point rendering with `decimals` digits.
std::string fixed(double v, int decimals);

/// Left-pad / right-pad to `width` with spaces.
std::string pad_left(std::string s, std::size_t width);
std::string pad_right(std::string s, std::size_t width);

/// The one strict count parser for every input boundary (CLI flags, PAD1
/// fields, cache files): decimal digits only — no sign, no whitespace, no
/// trailing text — and at most `max`. nullopt otherwise.
std::optional<std::uint64_t> parse_u64(
    std::string_view s,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// The one strict duration parser: a decimal number, optionally with an
/// exponent ("1.5", "2e3"), that is finite and >= 0 — no sign, no
/// whitespace, no trailing text, no "inf"/"nan". nullopt otherwise.
std::optional<double> parse_seconds(std::string_view s);

}  // namespace pa::str

// Small string utilities (libstdc++ 12 lacks <format>, so we provide our
// own formatting helpers instead).
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace pa::str {

namespace detail {

/// The integers whose operator<< text is their decimal digits: every
/// integer type but bool and the character types (a stream prints those as
/// a word or a character).
template <typename T>
inline constexpr bool kDecimalInteger =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, char> && !std::is_same_v<T, signed char> &&
    !std::is_same_v<T, unsigned char> && !std::is_same_v<T, char8_t> &&
    !std::is_same_v<T, char16_t> && !std::is_same_v<T, char32_t> &&
    !std::is_same_v<T, wchar_t>;

template <typename T>
void append_one(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, char>) {
    out.push_back(v);
  } else if constexpr (std::is_same_v<T, const char*> ||
                       std::is_same_v<T, char*>) {
    if (v) out += v;  // a null pointer renders as nothing
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out += std::string_view(v);
  } else if constexpr (kDecimalInteger<T>) {
    char buf[std::numeric_limits<T>::digits10 + 3];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else {
    std::ostringstream os;
    os << v;
    out += os.view();
  }
}

}  // namespace detail

/// Append each argument's operator<< text to `out`, in order. Strings,
/// characters and decimal integers are appended directly; anything else
/// (floating point, bool, one-byte integers, enums, types with their own
/// operator<<) goes through a fresh stream of its own, so its text is
/// exactly what operator<< writes to a default stream (and a manipulator
/// argument changes nothing after it). A null `const char*` appends
/// nothing.
template <typename... Args>
void append(std::string& out, const Args&... args) {
  (detail::append_one(out, args), ...);
}

/// The concatenation of every argument's operator<< text (see append).
template <typename... Args>
std::string cat(const Args&... args) {
  std::string out;
  append(out, args...);
  return out;
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

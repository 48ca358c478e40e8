#include "support/str.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <iomanip>

namespace pa::str {

std::vector<std::string> split(std::string_view s, char sep, bool keep_empty) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    std::string_view field = s.substr(start, end - start);
    if (keep_empty || !field.empty()) out.emplace_back(field);
    start = end + 1;
    if (end == s.size()) break;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string with_commas(long long n) {
  const bool neg = n < 0;
  // Negate in unsigned: -LLONG_MIN does not fit in a long long.
  const unsigned long long magnitude =
      neg ? 0ull - static_cast<unsigned long long>(n)
          : static_cast<unsigned long long>(n);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out += ',';
    out += *it;
    ++count;
  }
  if (neg) out += '-';
  return {out.rbegin(), out.rend()};
}

std::string percent(double ratio) { return fixed(ratio * 100.0, 2) + "%"; }

std::string fixed(double v, int decimals) {
  // to_chars in fixed format with a precision is printf's %.*f, which is
  // what std::fixed << std::setprecision(d) writes. The stream stays for
  // what the buffer cannot hold and for a negative precision.
  char buf[128];
  if (decimals >= 0) {
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                         std::chars_format::fixed, decimals);
    if (ec == std::errc{}) return std::string(buf, end);
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

std::string pad_left(std::string s, std::size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

std::string pad_right(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

std::optional<std::uint64_t> parse_u64(std::string_view s, std::uint64_t max) {
  // from_chars reads digits only for unsigned types: no sign, no whitespace.
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || v > max)
    return std::nullopt;
  return v;
}

std::optional<double> parse_seconds(std::string_view s) {
  // from_chars would take a '-' sign, "inf" and "nan"; a leading digit or
  // '.' rules those out (it reads no '+', whitespace or hex), and overflow
  // ("1e999") is its out-of-range error, so what parses is finite.
  if (s.empty() || !(std::isdigit(static_cast<unsigned char>(s.front())) ||
                     s.front() == '.'))
    return std::nullopt;
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace pa::str

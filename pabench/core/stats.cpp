#include "core/stats.h"

#include <algorithm>
#include <cmath>

namespace pabench {
namespace {

// 1-based nearest rank, ceil(p/100 * n) clamped to [1, n]. The product is
// rounded to 1e-9 first so 99.9% of 1000 is rank 999, not 1000.
std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const double rank = std::ceil(std::round(exact * 1e9) / 1e9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t k = nearest_rank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return values[k];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::optional<double> tail_percentile(std::size_t n) {
  for (double p : kTailLadder)
    if (samples_beyond(n, p) >= 10) return p;
  return std::nullopt;
}

double reported_tail_percentile(std::size_t n, double preferred) {
  if (samples_beyond(n, preferred) >= 10) return preferred;
  return tail_percentile(n).value_or(100.0);
}

Ratio ratio_with_base(std::uint64_t num, std::uint64_t base) {
  return Ratio{base ? static_cast<double>(num) / static_cast<double>(base)
                    : 0.0,
               num, base};
}

}  // namespace pabench

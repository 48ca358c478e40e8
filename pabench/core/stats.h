// Order statistics and ratios for the benchmark's reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace pabench {

/// Nearest-rank percentile (p in (0, 100]) of `values`: the smallest sample
/// with at least p% of the samples at or below it. 0 for no samples.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Samples strictly above the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The percentiles a tail may be reported at, highest first.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// The highest ladder percentile of n samples with at least ten samples
/// beyond it; nullopt when even the median has fewer than ten beyond.
std::optional<double> tail_percentile(std::size_t n);

/// The tail a workload reports: its fixed `preferred` percentile while the
/// run has ten samples beyond it, else the highest ladder entry that does,
/// else the maximum (100).
double reported_tail_percentile(std::size_t n, double preferred);

/// A ratio reported together with its base, so "1.0" over 3 lookups and
/// "1.0" over 30000 read differently.
struct Ratio {
  double value = 0.0;  // num / base; 0 when base is 0
  std::uint64_t num = 0;
  std::uint64_t base = 0;
};
Ratio ratio_with_base(std::uint64_t num, std::uint64_t base);

}  // namespace pabench

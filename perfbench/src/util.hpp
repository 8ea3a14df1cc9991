/// \file util.hpp
/// \brief Host clock, order statistics and the allocation counter shared by
/// the benchmark's translation units.

#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Host nanoseconds on the steady clock since the first call in the process.
inline std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

/// Linearly interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}

/// Geometric mean of positive values; 0 for an empty sample.
inline double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// Tail percentile of a latency sample: `preferred` when at least ten
/// samples lie beyond it, else the highest of 99.9, 99, 95, 90, 75 that has
/// ten beyond it (50 when the sample is smaller). A fixed preferred value
/// keeps the percentile from moving between runs whose sample counts
/// straddle a ladder step.
inline double tail_percentile(std::size_t samples, double preferred = 100.0) {
  if (static_cast<double>(samples) * (1.0 - preferred / 100.0) >= 10.0) {
    return preferred;
  }
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - pct / 100.0) >= 10.0) {
      return pct;
    }
  }
  return 50.0;
}

/// operator new calls made by this process so far (alloc_count.cpp).
std::uint64_t allocations();

}  // namespace perfbench

// Summary statistics shared by every measurement in the pipeline
// benchmark: medians of repeated samples and the tail-percentile rule.
//
// Tail rule: below 40 samples a tail percentile has too few points
// beyond it to mean anything, so only the median is reported. From 40
// samples on, the reported tail is the highest percentile of a fixed
// ladder that still has at least 10 samples beyond it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinTailSamples = 40;
inline constexpr std::size_t kSamplesBeyondTail = 10;

/// Median of `v` (mean of the two middle values for even sizes);
/// 0 for an empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile `pct` (0 < pct <= 100) of ascending `sorted`:
/// the smallest value with at least pct% of the samples at or below it.
inline double percentile_sorted(const std::vector<double>& sorted,
                                double pct) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::ceil(pct * static_cast<double>(sorted.size()) / 100.0);
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Samples strictly beyond the nearest-rank percentile `pct` of n samples.
inline std::size_t samples_beyond(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::max(std::ceil(pct * static_cast<double>(n) / 100.0), 1.0));
  return n >= rank ? n - rank : 0;
}

/// The tail percentile the rule allows for n samples: 50 (median only)
/// below kMinTailSamples, otherwise the highest ladder entry with at
/// least kSamplesBeyondTail samples beyond it.
inline double tail_percentile(std::size_t n) {
  if (n < kMinTailSamples) return 50.0;
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0, 90.0,
                                       75.0};
  for (const double pct : kLadder) {
    if (samples_beyond(n, pct) >= kSamplesBeyondTail) return pct;
  }
  return 50.0;
}

/// Samples per window of the serving tail (serve.p99_ms): the fewest for
/// which the rule allows p99 (10 samples beyond it).
inline constexpr std::size_t kTailWindow = 1000;

/// Event rate (per second) as the median over `windows` consecutive
/// windows of `per_slice` event counts, each slice `slice_s` long; the
/// slices that do not fill a whole window at the end are dropped. A burst
/// of outside contention in one window moves the median little.
inline double windowed_rate(const std::vector<std::int64_t>& per_slice,
                            double slice_s, std::size_t windows) {
  const std::size_t width = per_slice.size() / windows;
  if (width == 0) return 0.0;
  std::vector<double> rates;
  for (std::size_t w = 0; w < windows; ++w) {
    std::int64_t count = 0;
    for (std::size_t s = w * width; s < (w + 1) * width; ++s) {
      count += per_slice[s];
    }
    rates.push_back(static_cast<double>(count) /
                    (static_cast<double>(width) * slice_s));
  }
  return median(std::move(rates));
}

/// Percentile `pct` of `values` per window, then the median over windows.
/// Samples are ordered by `at` and cut into consecutive windows of equal
/// count, as many as keep at least `min_per_window` samples in each (one
/// window when there are fewer).
inline double windowed_percentile(const std::vector<double>& at,
                                  const std::vector<double>& values,
                                  std::size_t min_per_window, double pct) {
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return at[a] < at[b]; });
  const std::size_t windows = std::max<std::size_t>(1, n / min_per_window);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> chunk;
    for (std::size_t i = w * n / windows; i < (w + 1) * n / windows; ++i) {
      chunk.push_back(values[order[i]]);
    }
    std::sort(chunk.begin(), chunk.end());
    per_window.push_back(percentile_sorted(chunk, pct));
  }
  return median(std::move(per_window));
}

}  // namespace perfbench

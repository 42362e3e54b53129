// Small descriptive-statistics helpers for the experiment harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/assert.hpp"

namespace amac::util {

/// Nearest-rank percentile, p in [0, 1]: the ceil(p * n)-th smallest of the
/// n samples, rank clamped to [1, n] (so p = 0 gives the minimum). Works on
/// its own copy of the samples. Requires at least one sample.
template <typename T>
[[nodiscard]] T nearest_rank(std::vector<T> samples, double p) {
  AMAC_EXPECTS(!samples.empty());
  AMAC_EXPECTS(p >= 0.0 && p <= 1.0);
  const auto ceil_rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  const std::size_t rank = std::clamp<std::size_t>(ceil_rank, 1,
                                                   samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

/// Accumulates samples and reports summary statistics. Values are stored so
/// exact percentiles are available; experiment sample counts are small.
class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  /// Population standard deviation; 0 for fewer than 2 samples.
  [[nodiscard]] double stddev() const;
  /// Percentile by linear interpolation between the two closest ranks of
  /// the sorted samples, p in [0,100] (nearest_rank above picks a sample).
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double total() const { return sum_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;

  void ensure_sorted() const;
};

}  // namespace amac::util

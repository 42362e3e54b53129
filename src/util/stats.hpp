// The one percentile rule: nearest rank, shared by the benches and tests.
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

}  // namespace amac::util

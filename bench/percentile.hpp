// The one percentile helper the benches share.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace reldev::bench {

/// Nearest-rank percentile: the sample at rank round(p * (n - 1)) of the
/// sorted samples, `p` in [0, 1]. Returns 0 for an empty sample set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

}  // namespace reldev::bench

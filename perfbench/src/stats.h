// Small statistics helpers the benchmark reports with: quartiles matching
// Python's statistics.quantiles(values, n=4), and the tail-percentile rule
// (report a percentile only where at least ten samples lie beyond it).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the "exclusive" method of Python's statistics.quantiles
/// (its default), so the spreads printed here are the ones a reader gets by
/// feeding the same values to Python. One value yields q1 = median = q3;
/// no values yield zeros.
Quartiles ComputeQuartiles(std::vector<double> values);

/// A tail percentile of a sample set, lowered to the highest percentile that
/// still has `min_beyond` samples strictly above its nearest-rank position.
struct TailPercentile {
  double reported_p = 0.0;  ///< the requested percentile unless lowered
  double value = 0.0;       ///< nearest-rank value at reported_p
  size_t samples = 0;
  size_t beyond = 0;  ///< samples ranked above the reported one
  /// False when the requested percentile lacked `min_beyond` samples beyond
  /// it and a lower one is reported under the same name.
  bool supported = false;
};

/// Nearest-rank percentile (the repo's Histogram::Percentile rule) at
/// `requested_p`, lowered as described above. With `min_beyond` or fewer
/// samples no percentile qualifies: the result reports the median instead
/// and is flagged unsupported.
TailPercentile SupportedPercentile(std::vector<double> samples, double requested_p,
                                   size_t min_beyond = 10);

}  // namespace perfbench

#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  q.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"), n=4: cut point i sits at
  // position i*(n+1)/4, clamped to [1, n-1], interpolated between its
  // neighbours in exact integer arithmetic.
  const auto cut = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

TailPercentile SupportedPercentile(std::vector<double> samples, double requested_p,
                                   size_t min_beyond) {
  TailPercentile t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  // Nearest rank, 1-indexed: ceil(p/100 * n).
  const auto rank_of = [n](double p) {
    const size_t r = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    return std::clamp<size_t>(r, 1, n);
  };
  size_t rank = rank_of(requested_p);
  t.reported_p = requested_p;
  t.supported = n - rank >= min_beyond;
  if (!t.supported) {
    if (n > min_beyond) {
      // The highest rank with min_beyond samples above it, expressed as the
      // percentile whose nearest rank is exactly that rank.
      rank = n - min_beyond;
      t.reported_p = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    } else {
      rank = rank_of(50.0);
      t.reported_p = 50.0;
    }
  }
  t.value = samples[rank - 1];
  t.beyond = n - rank;
  return t;
}

}  // namespace perfbench

// Regenerates paper Figure 2: average download distance (requester→provider
// RTT, ms) as the number of queries grows, for the four systems.
//
// Paper's reported shape: Locaware ≈14% below the others and *improving* with
// query volume (natural replication puts providers in more localities);
// the location-oblivious systems stay flat.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const bench::FigOptions options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 2: comparison of download distance", options);

  const auto results = bench::RunAllProtocols(options);
  const auto series = bench::ToSeries(results);

  std::fputs(metrics::FormatFigureTable(series, metrics::Field::kDownloadMs,
                                        "Average download distance (ms RTT)")
                 .c_str(),
             stdout);
  std::printf("\nCSV:\n%s",
              metrics::FormatFigureCsv(series, metrics::Field::kDownloadMs).c_str());
  bench::MaybeWriteSvg(series, metrics::Field::kDownloadMs,
                       "Figure 2: comparison of download distance", "ms RTT", options);
  bench::MaybeWriteJson(results, options);

  bench::PrintSummaries(results);

  // Paper-vs-measured headline: Locaware's reduction vs the best baseline,
  // and its first-bucket -> last-bucket trend.
  const auto& locaware = results[3];
  double best_baseline = 1e18;
  for (int i = 0; i < 3; ++i) {
    best_baseline = std::min(best_baseline, results[i].summary.avg_download_ms);
  }
  // Signed change, so a seed where Locaware loses prints "+x%", not "--x%".
  const double change =
      (locaware.summary.avg_download_ms / best_baseline - 1.0) * 100.0;
  std::printf("\nheadline: Locaware download distance vs best baseline: %+.1f%%"
              " (paper: ~-14%%)\n",
              change);
  if (locaware.series.size() >= 2) {
    const double first = locaware.series.front().avg_download_ms;
    const double last = locaware.series.back().avg_download_ms;
    std::printf("trend: Locaware first bucket %.1f ms -> last bucket %.1f ms"
                " (paper: improves with more queries)\n",
                first, last);
  }
  return 0;
}

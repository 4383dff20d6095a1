// Regenerates paper Figure 4: success rate (satisfied / submitted queries) as
// the number of queries grows, for the four systems.
//
// Paper's reported shape: Flooding wins (whole-network scope); Locaware
// "increases hit ratio by 23% wrt Dicas and 33% wrt Dicas-keys".
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const bench::FigOptions options = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Figure 4: comparison of success rate", options);

  const auto results = bench::RunAllProtocols(options);
  const auto series = bench::ToSeries(results);

  std::fputs(metrics::FormatFigureTable(series, metrics::Field::kSuccessRate,
                                        "Success rate (fraction of queries satisfied)")
                 .c_str(),
             stdout);
  std::printf("\nCSV:\n%s",
              metrics::FormatFigureCsv(series, metrics::Field::kSuccessRate).c_str());
  bench::MaybeWriteSvg(series, metrics::Field::kSuccessRate,
                       "Figure 4: comparison of success rate", "fraction satisfied",
                       options);
  bench::MaybeWriteJson(results, options);

  bench::PrintSummaries(results);

  const double locaware = results[3].summary.success_rate;
  const double dicas = results[1].summary.success_rate;
  const double dicas_keys = results[2].summary.success_rate;
  if (dicas > 0 && dicas_keys > 0) {
    std::printf("\nheadline: Locaware hit ratio vs Dicas: %+.1f%% (paper: +23%%)\n",
                (locaware / dicas - 1.0) * 100.0);
    std::printf("headline: Locaware hit ratio vs Dicas-Keys: %+.1f%% (paper: +33%%)\n",
                (locaware / dicas_keys - 1.0) * 100.0);
  }
  std::printf("note: ~1/e of files receive no initial copy (1000 peers x 3 files\n"
              "      over 3000 files), so even Flooding cannot exceed ~63%%.\n");
  return 0;
}

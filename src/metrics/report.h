// Aggregation of QueryRecords into the paper's series and summary numbers.
//
// Every figure in the paper plots a metric against the *number of queries*
// submitted so far, so the core operation here is bucketing records by
// submission index and averaging within each bucket.
#pragma once

#include <string>
#include <vector>

#include "metrics/metrics.h"

namespace locaware::metrics {

/// One x-axis point of a figure: the bucket of queries (start, end] and the
/// metric averages inside it.
struct BucketPoint {
  uint64_t queries_begin = 0;  ///< first query index in the bucket (inclusive)
  uint64_t queries_end = 0;    ///< last query index in the bucket (exclusive)

  double success_rate = 0.0;          ///< Fig. 4
  double msgs_per_query = 0.0;        ///< Fig. 3 (query+response+probe)
  double query_msgs_per_query = 0.0;  ///< Fig. 3 breakdown
  double bytes_per_query = 0.0;       ///< Fig. 3 in wire bytes
  double avg_download_ms = 0.0;       ///< Fig. 2 (successful queries only)
  double loc_match_rate = 0.0;        ///< share of downloads from same locId
  double cache_answer_share = 0.0;    ///< successes answered from an index
};

/// Whole-run rollup.
struct Summary {
  uint64_t num_queries = 0;
  double success_rate = 0.0;
  double msgs_per_query = 0.0;
  double bytes_per_query = 0.0;
  double avg_download_ms = 0.0;
  double loc_match_rate = 0.0;
  double cache_answer_share = 0.0;
  double avg_providers_offered = 0.0;
  uint64_t bloom_update_msgs = 0;
  uint64_t bloom_update_bytes = 0;
  uint64_t stale_failures = 0;
  uint64_t stale_provider_hits = 0;
  uint64_t repair_msgs = 0;
  uint64_t repair_bytes = 0;
  uint64_t churn_events = 0;

  /// Chord DHT counters (kDht only; all-zero otherwise). Emitted in
  /// the metric JSON only when nonzero, so the paper protocols' serialized
  /// output is unchanged byte for byte.
  uint64_t dht_lookups = 0;
  uint64_t dht_hops = 0;
  uint64_t dht_store_msgs = 0;
  uint64_t dht_store_bytes = 0;

  /// Time from submission to the first response, over queries that got one.
  double first_response_ms_p50 = 0.0;
  double first_response_ms_p95 = 0.0;
  /// Overlay hops the first response traveled (how deep answers sit).
  double first_response_hops_mean = 0.0;

  /// Parallel-scheduler shape (0 for single-shard runs). Deliberately NOT
  /// part of the byte-compared metric JSON: windows/steals depend on the
  /// shard and worker counts and idle_ns on the wall clock.
  uint64_t scheduler_windows = 0;
  uint64_t scheduler_steals = 0;
  uint64_t scheduler_idle_ns = 0;
};

/// Splits `records` into `num_buckets` equal spans (the last may be larger)
/// and averages each. Returns fewer buckets when there are fewer records.
std::vector<BucketPoint> Bucketize(const std::vector<QueryRecord>& records,
                                   size_t num_buckets);

/// One popularity band: queries whose target's Zipf rank falls in
/// [rank_begin, rank_end).
struct PopularityBand {
  uint32_t rank_begin = 0;
  uint32_t rank_end = 0;
  uint64_t queries = 0;
  double success_rate = 0.0;
  double cache_answer_share = 0.0;  ///< successes served from some index
  double avg_download_ms = 0.0;
};

/// Splits records into popularity bands with the given rank boundaries
/// (e.g. {1, 10, 100, 1000, 3000}: head file, top-10, top-100, ...). Bands
/// follow [previous, boundary).
std::vector<PopularityBand> ByPopularity(const std::vector<QueryRecord>& records,
                                         const std::vector<uint32_t>& boundaries);

/// Aggregates a whole run.
Summary Summarize(const MetricsCollector& collector);

/// Renders a fixed-width table: one row per bucket, one column group per
/// labeled series. All series must have equal length.
struct LabeledSeries {
  std::string label;
  std::vector<BucketPoint> points;
};

/// Formats one metric (chosen by `field`) across protocols as a text table
/// whose rows are x-axis buckets — the exact shape of the paper's figures.
enum class Field {
  kSuccessRate,
  kMsgsPerQuery,
  kBytesPerQuery,
  kDownloadMs,
  kLocMatchRate,
};
std::string FormatFigureTable(const std::vector<LabeledSeries>& series, Field field,
                              const std::string& title);

/// CSV dump of the same data (one line per bucket, one column per label).
std::string FormatFigureCsv(const std::vector<LabeledSeries>& series, Field field);

/// Extracts a field value from one bucket point.
double FieldValue(const BucketPoint& point, Field field);

}  // namespace locaware::metrics

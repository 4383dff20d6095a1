#include "metrics/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "common/histogram.h"

namespace locaware::metrics {

namespace {

BucketPoint AggregateSpan(const std::vector<QueryRecord>& records, size_t begin,
                          size_t end) {
  BucketPoint point;
  point.queries_begin = begin;
  point.queries_end = end;

  uint64_t successes = 0;
  uint64_t total_msgs = 0;
  uint64_t total_query_msgs = 0;
  uint64_t total_bytes = 0;
  double download_sum = 0.0;
  uint64_t download_count = 0;
  uint64_t loc_matches = 0;
  uint64_t cache_answers = 0;

  for (size_t i = begin; i < end; ++i) {
    const QueryRecord& r = records[i];
    total_msgs += r.TotalSearchMessages();
    total_query_msgs += r.query_msgs;
    total_bytes += r.TotalSearchBytes();
    if (!r.success) continue;
    ++successes;
    // Local-store hits involve no transfer; Fig. 2 averages real downloads.
    if (r.source != AnswerSource::kLocalStore) {
      download_sum += r.download_distance_ms;
      ++download_count;
    }
    if (r.provider_loc_match) ++loc_matches;
    if (r.source == AnswerSource::kResponseIndex ||
        r.source == AnswerSource::kLocalIndex) {
      ++cache_answers;
    }
  }

  const double n = static_cast<double>(end - begin);
  point.success_rate = n > 0 ? static_cast<double>(successes) / n : 0.0;
  point.msgs_per_query = n > 0 ? static_cast<double>(total_msgs) / n : 0.0;
  point.query_msgs_per_query = n > 0 ? static_cast<double>(total_query_msgs) / n : 0.0;
  point.bytes_per_query = n > 0 ? static_cast<double>(total_bytes) / n : 0.0;
  point.avg_download_ms =
      download_count > 0 ? download_sum / static_cast<double>(download_count) : 0.0;
  point.loc_match_rate =
      successes > 0 ? static_cast<double>(loc_matches) / static_cast<double>(successes)
                    : 0.0;
  point.cache_answer_share =
      successes > 0 ? static_cast<double>(cache_answers) / static_cast<double>(successes)
                    : 0.0;
  return point;
}

}  // namespace

std::vector<BucketPoint> Bucketize(const std::vector<QueryRecord>& records,
                                   size_t num_buckets) {
  std::vector<BucketPoint> points;
  if (records.empty() || num_buckets == 0) return points;
  num_buckets = std::min(num_buckets, records.size());
  const size_t span = records.size() / num_buckets;
  for (size_t b = 0; b < num_buckets; ++b) {
    const size_t begin = b * span;
    const size_t end = (b + 1 == num_buckets) ? records.size() : begin + span;
    points.push_back(AggregateSpan(records, begin, end));
  }
  return points;
}

Summary Summarize(const MetricsCollector& collector) {
  const auto& records = collector.records();
  Summary s;
  s.num_queries = records.size();
  if (records.empty()) return s;

  const BucketPoint all = AggregateSpan(records, 0, records.size());
  s.success_rate = all.success_rate;
  s.msgs_per_query = all.msgs_per_query;
  s.bytes_per_query = all.bytes_per_query;
  s.avg_download_ms = all.avg_download_ms;
  s.loc_match_rate = all.loc_match_rate;
  s.cache_answer_share = all.cache_answer_share;

  uint64_t providers = 0;
  for (const QueryRecord& r : records) providers += r.providers_offered;
  s.avg_providers_offered =
      static_cast<double>(providers) / static_cast<double>(records.size());

  Histogram first_response_ms;
  RunningStat hops;
  for (const QueryRecord& r : records) {
    if (r.first_response_at == 0) continue;
    first_response_ms.Add(sim::ToMs(r.first_response_at - r.submitted_at));
    hops.Add(static_cast<double>(r.first_response_hops));
  }
  s.first_response_ms_p50 = first_response_ms.Percentile(50);
  s.first_response_ms_p95 = first_response_ms.Percentile(95);
  s.first_response_hops_mean = hops.mean();

  s.bloom_update_msgs = collector.bloom_update_msgs();
  s.bloom_update_bytes = collector.bloom_update_bytes();
  s.stale_failures = collector.stale_failures();
  s.stale_provider_hits = collector.stale_provider_hits();
  s.repair_msgs = collector.repair_msgs();
  s.repair_bytes = collector.repair_bytes();
  s.churn_events = collector.churn_events();
  s.dht_lookups = collector.dht_lookups();
  s.dht_hops = collector.dht_hops();
  s.dht_store_msgs = collector.dht_store_msgs();
  s.dht_store_bytes = collector.dht_store_bytes();
  s.scheduler_windows = collector.scheduler_windows();
  s.scheduler_steals = collector.scheduler_steals();
  s.scheduler_idle_ns = collector.scheduler_idle_ns();
  return s;
}

std::vector<PopularityBand> ByPopularity(const std::vector<QueryRecord>& records,
                                         const std::vector<uint32_t>& boundaries) {
  std::vector<PopularityBand> bands;
  uint32_t begin = 0;
  for (uint32_t end : boundaries) {
    PopularityBand band;
    band.rank_begin = begin;
    band.rank_end = end;
    uint64_t successes = 0, cache_answers = 0, downloads = 0;
    double download_sum = 0;
    for (const QueryRecord& r : records) {
      if (r.target_rank < begin || r.target_rank >= end) continue;
      ++band.queries;
      if (!r.success) continue;
      ++successes;
      if (r.source == AnswerSource::kResponseIndex ||
          r.source == AnswerSource::kLocalIndex) {
        ++cache_answers;
      }
      if (r.source != AnswerSource::kLocalStore) {
        download_sum += r.download_distance_ms;
        ++downloads;
      }
    }
    if (band.queries > 0) {
      band.success_rate =
          static_cast<double>(successes) / static_cast<double>(band.queries);
    }
    if (successes > 0) {
      band.cache_answer_share =
          static_cast<double>(cache_answers) / static_cast<double>(successes);
    }
    if (downloads > 0) {
      band.avg_download_ms = download_sum / static_cast<double>(downloads);
    }
    bands.push_back(band);
    begin = end;
  }
  return bands;
}

double FieldValue(const BucketPoint& point, Field field) {
  switch (field) {
    case Field::kSuccessRate:
      return point.success_rate;
    case Field::kMsgsPerQuery:
      return point.msgs_per_query;
    case Field::kBytesPerQuery:
      return point.bytes_per_query;
    case Field::kDownloadMs:
      return point.avg_download_ms;
    case Field::kLocMatchRate:
      return point.loc_match_rate;
  }
  return 0.0;
}

std::string FormatFigureTable(const std::vector<LabeledSeries>& series, Field field,
                              const std::string& title) {
  std::ostringstream out;
  out << title << "\n";
  out << "  x = cumulative queries; cell = bucket average\n";

  char buf[64];
  out << "  " << std::string(10, ' ');
  for (const LabeledSeries& s : series) {
    std::snprintf(buf, sizeof(buf), "%14s", s.label.c_str());
    out << buf;
  }
  out << "\n";

  if (series.empty()) return out.str();
  const size_t rows = series.front().points.size();
  for (const LabeledSeries& s : series) {
    LOCAWARE_CHECK_EQ(s.points.size(), rows) << "ragged series in figure table";
  }
  for (size_t r = 0; r < rows; ++r) {
    std::snprintf(buf, sizeof(buf), "  %10llu",
                  static_cast<unsigned long long>(series.front().points[r].queries_end));
    out << buf;
    for (const LabeledSeries& s : series) {
      std::snprintf(buf, sizeof(buf), "%14.3f", FieldValue(s.points[r], field));
      out << buf;
    }
    out << "\n";
  }
  return out.str();
}

std::string FormatFigureCsv(const std::vector<LabeledSeries>& series, Field field) {
  std::ostringstream out;
  out << "queries";
  for (const LabeledSeries& s : series) out << ',' << s.label;
  out << '\n';
  if (series.empty()) return out.str();
  const size_t rows = series.front().points.size();
  for (size_t r = 0; r < rows; ++r) {
    out << series.front().points[r].queries_end;
    for (const LabeledSeries& s : series) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6f", FieldValue(s.points[r], field));
      out << ',' << buf;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace locaware::metrics

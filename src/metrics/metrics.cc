#include "metrics/metrics.h"

#include "common/check.h"

namespace locaware::metrics {

size_t MetricsCollector::BeginQuery(QueryId qid, PeerId requester, sim::SimTime now) {
  QueryRecord record;
  record.qid = qid;
  record.requester = requester;
  record.submitted_at = now;
  records_.push_back(std::move(record));
  return records_.size() - 1;
}

QueryRecord* MetricsCollector::Record(size_t slot) {
  LOCAWARE_CHECK_LT(slot, records_.size());
  return &records_[slot];
}

namespace {

/// Adds the per-message traffic counters of `from` into `into` (integer
/// sums, so the order parts are folded in cannot show).
void AddTraffic(const QueryRecord& from, QueryRecord* into) {
  into->query_msgs += from.query_msgs;
  into->query_bytes += from.query_bytes;
  into->response_msgs += from.response_msgs;
  into->response_bytes += from.response_bytes;
  into->probe_msgs += from.probe_msgs;
  into->probe_bytes += from.probe_bytes;
}

}  // namespace

MetricsCollector MetricsCollector::MergeShards(
    const std::vector<MetricsCollector*>& parts,
    const std::vector<uint32_t>& origin_shard) {
  LOCAWARE_CHECK(!parts.empty());
  MetricsCollector merged = std::move(*parts[0]);
  *parts[0] = MetricsCollector();
  const size_t num_slots = merged.records_.size();
  LOCAWARE_CHECK_EQ(origin_shard.size(), num_slots);
  for (uint32_t s = 1; s < parts.size(); ++s) {
    MetricsCollector& part = *parts[s];
    LOCAWARE_CHECK_EQ(part.records_.size(), num_slots) << "shards disagree on slots";
    merged.bloom_update_msgs_ += part.bloom_update_msgs_;
    merged.bloom_update_bytes_ += part.bloom_update_bytes_;
    merged.churn_events_ += part.churn_events_;
    merged.stale_failures_ += part.stale_failures_;
    merged.stale_provider_hits_ += part.stale_provider_hits_;
    merged.repair_msgs_ += part.repair_msgs_;
    merged.repair_bytes_ += part.repair_bytes_;
    merged.dht_lookups_ += part.dht_lookups_;
    merged.dht_hops_ += part.dht_hops_;
    merged.dht_store_msgs_ += part.dht_store_msgs_;
    merged.dht_store_bytes_ += part.dht_store_bytes_;
    for (size_t slot = 0; slot < num_slots; ++slot) {
      LOCAWARE_CHECK_LT(origin_shard[slot], parts.size());
      QueryRecord& into = merged.records_[slot];
      QueryRecord& from = part.records_[slot];
      if (origin_shard[slot] == s) {
        // This part owns the slot's non-additive fields: it becomes the
        // record, carrying the traffic folded so far.
        AddTraffic(into, &from);
        into = from;
      } else {
        AddTraffic(from, &into);
      }
    }
    part = MetricsCollector();
  }
  return merged;
}

}  // namespace locaware::metrics

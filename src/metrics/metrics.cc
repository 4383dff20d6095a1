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

MetricsCollector MetricsCollector::MergeShards(
    const std::vector<const MetricsCollector*>& parts,
    const std::vector<uint32_t>& origin_shard) {
  LOCAWARE_CHECK(!parts.empty());
  MetricsCollector merged;
  const size_t num_slots = parts[0]->records_.size();
  LOCAWARE_CHECK_EQ(origin_shard.size(), num_slots);
  for (const MetricsCollector* part : parts) {
    LOCAWARE_CHECK_EQ(part->records_.size(), num_slots) << "shards disagree on slots";
    merged.bloom_update_msgs_ += part->bloom_update_msgs_;
    merged.bloom_update_bytes_ += part->bloom_update_bytes_;
    merged.churn_events_ += part->churn_events_;
    merged.stale_failures_ += part->stale_failures_;
    merged.stale_provider_hits_ += part->stale_provider_hits_;
    merged.repair_msgs_ += part->repair_msgs_;
    merged.repair_bytes_ += part->repair_bytes_;
    merged.dht_lookups_ += part->dht_lookups_;
    merged.dht_hops_ += part->dht_hops_;
    merged.dht_store_msgs_ += part->dht_store_msgs_;
    merged.dht_store_bytes_ += part->dht_store_bytes_;
  }
  merged.records_.reserve(num_slots);
  for (size_t slot = 0; slot < num_slots; ++slot) {
    LOCAWARE_CHECK_LT(origin_shard[slot], parts.size());
    QueryRecord record = parts[origin_shard[slot]]->records_[slot];
    for (size_t s = 0; s < parts.size(); ++s) {
      if (s == origin_shard[slot]) continue;
      const QueryRecord& other = parts[s]->records_[slot];
      record.query_msgs += other.query_msgs;
      record.query_bytes += other.query_bytes;
      record.response_msgs += other.response_msgs;
      record.response_bytes += other.response_bytes;
      record.probe_msgs += other.probe_msgs;
      record.probe_bytes += other.probe_bytes;
    }
    merged.records_.push_back(record);
  }
  return merged;
}

}  // namespace locaware::metrics

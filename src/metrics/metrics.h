// Per-query and aggregate measurement, mirroring the paper's three metrics
// (§5.1): download distance, search traffic, success rate — plus the
// secondary quantities the prose discusses (locality match rate, cache hit
// share, Bloom maintenance bandwidth).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/sim_time.h"

namespace locaware::metrics {

/// How a successful query was ultimately answered.
enum class AnswerSource {
  kNone = 0,       ///< query failed
  kLocalStore,     ///< requester already shared a matching file
  kLocalIndex,     ///< requester's own response index had providers
  kFileStore,      ///< a remote peer's shared-file store
  kResponseIndex,  ///< a remote peer's cached index
};

/// Everything recorded about one query's lifetime.
struct QueryRecord {
  QueryId qid = 0;
  PeerId requester = kInvalidPeer;
  sim::SimTime submitted_at = 0;

  uint64_t query_msgs = 0;     ///< forwarded query copies (incl. duplicates)
  uint64_t response_msgs = 0;  ///< response relay hops
  uint64_t probe_msgs = 0;     ///< RTT probe + reply messages

  uint64_t query_bytes = 0;     ///< wire bytes of the query copies
  uint64_t response_bytes = 0;  ///< wire bytes of the response relays
  uint64_t probe_bytes = 0;     ///< wire bytes of the probe exchanges

  uint32_t responses_received = 0;
  uint32_t providers_offered = 0;  ///< distinct providers across all responses

  bool success = false;
  AnswerSource source = AnswerSource::kNone;
  double download_distance_ms = 0.0;  ///< RTT requester→chosen provider
  bool provider_loc_match = false;    ///< chosen provider shares requester's locId
  sim::SimTime first_response_at = 0;  ///< 0 when no response arrived
  uint32_t first_response_hops = 0;    ///< overlay hops the first response traveled

  /// Popularity rank of the queried file (0 = hottest; Zipf head). Lets the
  /// analysis split metrics by popularity decile.
  uint32_t target_rank = 0;

  /// Search messages for this query (the paper's Fig. 3 quantity).
  uint64_t TotalSearchMessages() const { return query_msgs + response_msgs + probe_msgs; }

  /// Search bytes for this query (Gnutella 0.4-style framing estimates).
  uint64_t TotalSearchBytes() const { return query_bytes + response_bytes + probe_bytes; }
};

/// \brief Accumulates QueryRecords plus network-maintenance counters.
///
/// The engine owns one collector per run. Records are appended in submission
/// order, which is the x-axis ("number of queries") of every figure.
class MetricsCollector {
 public:
  /// Starts tracking a query; returns its record slot index.
  size_t BeginQuery(QueryId qid, PeerId requester, sim::SimTime now);

  /// Merges per-shard collectors into one run-level collector, moving out of
  /// them: the result takes over the first part's records and folds the
  /// others in one part at a time, releasing each part's records as it goes,
  /// so the merge never holds a copy beside the parts (a single part is just
  /// moved). Every part must hold the same slots (the sharded engine
  /// pre-registers the full workload in each shard). `origin_shard[slot]`
  /// names the part owning the non-additive fields of that slot (success,
  /// source, first-response data — written only by the requester's shard);
  /// the message/byte counters, which any forwarding shard increments on its
  /// own copy, are summed across all parts. Maintenance counters are summed
  /// from every part. The result is byte-identical to what a sequential run
  /// records directly; the parts are left empty.
  static MetricsCollector MergeShards(const std::vector<MetricsCollector*>& parts,
                                      const std::vector<uint32_t>& origin_shard);

  /// Mutable access while a query is in flight.
  QueryRecord* Record(size_t slot);

  const std::vector<QueryRecord>& records() const { return records_; }

  // --- maintenance traffic (not charged to any single query) ---
  void AddBloomUpdate(uint64_t messages, uint64_t bytes) {
    bloom_update_msgs_ += messages;
    bloom_update_bytes_ += bytes;
  }
  uint64_t bloom_update_msgs() const { return bloom_update_msgs_; }
  uint64_t bloom_update_bytes() const { return bloom_update_bytes_; }

  void AddChurnEvent() { ++churn_events_; }
  uint64_t churn_events() const { return churn_events_; }

  /// Queries that received a response but whose every offered provider was
  /// offline at download time (stale index under churn).
  void AddStaleFailure() { ++stale_failures_; }
  uint64_t stale_failures() const { return stale_failures_; }

  /// Offered providers that had already departed by selection time — each one
  /// is a "hit on a departed provider", the staleness the index carried.
  void AddStaleProviderHit() { ++stale_provider_hits_; }
  uint64_t stale_provider_hits() const { return stale_provider_hits_; }

  /// Link-repair handshake traffic (LinkDrop/LinkProbe/LinkAccept), the
  /// maintenance cost of keeping the overlay wired under churn.
  void AddRepairTraffic(uint64_t messages, uint64_t bytes) {
    repair_msgs_ += messages;
    repair_bytes_ += bytes;
  }
  uint64_t repair_msgs() const { return repair_msgs_; }
  uint64_t repair_bytes() const { return repair_bytes_; }

  // --- Chord DHT counters (kDht only; all-zero otherwise) ---
  /// One query-driven lookup started.
  void AddDhtLookup() { ++dht_lookups_; }
  uint64_t dht_lookups() const { return dht_lookups_; }

  /// Route length of a completed query-driven lookup: the messages it took
  /// from the initiator to the key's owner (0 for an initiator alone on the
  /// ring); the mean hops metric is hops/lookups.
  void AddDhtHops(uint64_t hops) { dht_hops_ += hops; }
  uint64_t dht_hops() const { return dht_hops_; }

  /// Publish-path traffic: every step of every routed DhtStore, the one into
  /// the owner included (maintenance cost of the structured index).
  void AddDhtStoreTraffic(uint64_t messages, uint64_t bytes) {
    dht_store_msgs_ += messages;
    dht_store_bytes_ += bytes;
  }
  uint64_t dht_store_msgs() const { return dht_store_msgs_; }
  uint64_t dht_store_bytes() const { return dht_store_bytes_; }

  /// Parallel-scheduler counters the engine copies in after a run: windows
  /// and steals are deterministic functions of (config, seed, shards,
  /// workers); idle_ns is wall-clock. All are execution-shape diagnostics —
  /// reported in summary tables and bench JSON, never in the byte-compared
  /// metric JSON (a 1-shard run has no windows at all).
  void SetSchedulerStats(uint64_t windows, uint64_t steals, uint64_t idle_ns) {
    scheduler_windows_ = windows;
    scheduler_steals_ = steals;
    scheduler_idle_ns_ = idle_ns;
  }
  uint64_t scheduler_windows() const { return scheduler_windows_; }
  uint64_t scheduler_steals() const { return scheduler_steals_; }
  uint64_t scheduler_idle_ns() const { return scheduler_idle_ns_; }

 private:
  std::vector<QueryRecord> records_;
  uint64_t bloom_update_msgs_ = 0;
  uint64_t bloom_update_bytes_ = 0;
  uint64_t churn_events_ = 0;
  uint64_t stale_failures_ = 0;
  uint64_t stale_provider_hits_ = 0;
  uint64_t repair_msgs_ = 0;
  uint64_t repair_bytes_ = 0;
  uint64_t dht_lookups_ = 0;
  uint64_t dht_hops_ = 0;
  uint64_t dht_store_msgs_ = 0;
  uint64_t dht_store_bytes_ = 0;
  uint64_t scheduler_windows_ = 0;
  uint64_t scheduler_steals_ = 0;
  uint64_t scheduler_idle_ns_ = 0;
};

}  // namespace locaware::metrics

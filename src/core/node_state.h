// Per-peer protocol state. One NodeState per participant, owned by the
// Engine; protocols mutate it through their hooks. What lives only while a
// query does (its reverse path) is not here: the owning shard keeps it per
// query (core/query_routes.h).
#pragma once

#include <memory>

#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "cache/response_index.h"
#include "common/flat_map.h"
#include "common/small_vector.h"
#include "common/types.h"
#include "dht/routing.h"

namespace locaware::core {

/// All state a peer carries. The Bloom-filter members are populated only for
/// Locaware; they stay null under the other protocols.
struct NodeState {
  PeerId id = kInvalidPeer;
  LocId loc_id = 0;   ///< landmark-ordering location id (§4.1.1)
  GroupId gid = 0;    ///< Dicas group id, uniform in [0, M) (§3.2)
  /// This peer's maintenance grid is maintenance_offset + k * interval
  /// (4 bytes; set only where ticks are armed on demand, see Engine).
  uint32_t maintenance_offset = 0;
  /// A maintenance tick is queued for this peer (on-demand runs only).
  bool maintenance_armed = false;

  /// Files this peer shares: the initial 3 plus everything it downloads
  /// ("the requesting peer ... becomes a provider pf", §3.1). Inline for the
  /// initial placement; downloads spill into the owner shard's arena (the
  /// engine binds it at setup).
  SmallVector<FileId, 4> file_store;

  /// The response index RI_n. Null for Flooding (which never caches).
  std::unique_ptr<cache::ResponseIndex> ri;

  // --- Locaware only (§4.2) ---
  /// Local deletable summary of RI keywords (4-bit counters, two per byte);
  /// its plain projection, derived from the counters, is what neighbors
  /// receive.
  std::unique_ptr<bloom::CountingBloomFilter> keyword_filter;
  /// Last projection actually gossiped; each maintenance tick syncs it to
  /// the counting filter and gossips the toggled positions.
  std::unique_ptr<bloom::BloomFilter> advertised_filter;
  /// Our copy of each neighbor's advertised filter: a 24-byte slot (peer id
  /// plus the filter's pointer and shape) and one heap block of words per
  /// copy. Flat tables (one allocation, arena-bound at setup); iteration is
  /// table order, so order-sensitive walks must collect-and-sort
  /// (common/flat_map.h).
  FlatMap<PeerId, bloom::BloomFilter> neighbor_filters;
  /// Neighbors' group ids as learned at link establishment ("neighboring
  /// peers exchange their group Ids as well as their Bloom filters").
  FlatMap<PeerId, GroupId> neighbor_gids;

  // --- Chord DHT only (dht protocol) ---
  /// Successor list, finger table, owned store and in-flight lookups. Null
  /// under the four unstructured protocols.
  std::unique_ptr<dht::RoutingState> dht;

  // --- churn (message-routed link lifecycle) ---
  /// Neighbor degree as announced in the last link handshake. Under churn,
  /// remote adjacency is unreadable (shard-partitioned), so degree-ranked
  /// forwarding uses these possibly stale hints — the knowledge a real peer
  /// would actually have.
  FlatMap<PeerId, uint32_t> neighbor_degree;
  /// Count of link-probe rounds this peer has started; keys the candidate
  /// draw (DecisionRng) so every round has a unique, shard-count-invariant
  /// stream.
  uint64_t link_round = 0;

  /// Convenience: does this peer share a file (linear scan; stores are tiny).
  bool SharesFile(FileId f) const {
    for (FileId mine : file_store) {
      if (mine == f) return true;
    }
    return false;
  }
};

}  // namespace locaware::core

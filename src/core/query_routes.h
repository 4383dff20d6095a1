// Reverse-path routing state of one shard (paper §3.1): for every query in
// flight, which of the shard's peers it reached and the neighbor each of them
// got its first copy from. A response walks back along those hops.
//
// The shard owns this state per query, so it lives exactly as long as the
// query: the per-shard cleanup event erases a query's whole hop table in one
// call, and a quiet shard holds nothing. (Per-peer tables, the alternative,
// each stay at their own peak for the rest of the run.)
#pragma once

#include <cstddef>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/types.h"

namespace locaware::core {

/// \brief One shard's query -> {peer -> from} hop tables.
///
/// Only events executing on the owning shard touch an instance. Both levels
/// are flat tables drawing their buffers from the shard's arena; a query's
/// hop table is a hash table rather than a sorted list because a flooded
/// query reaches hundreds of peers of a shard.
class QueryRoutes {
 public:
  /// Routes every future hop table's buffer (and the query table's) through
  /// `arena`. Call before the first Admit.
  void set_arena(common::Arena* arena) {
    arena_ = arena;
    by_query_.set_arena(arena);
  }

  /// Records that `peer` received `qid` from neighbor `from`. Returns false,
  /// recording nothing, when `peer` already holds a hop for `qid`: the copy
  /// is a duplicate (GUID suppression).
  bool Admit(QueryId qid, PeerId peer, PeerId from) {
    auto [it, inserted] = by_query_.try_emplace(qid);
    if (inserted) it->second.set_arena(arena_);
    return it->second.try_emplace(peer, from).second;
  }

  /// The neighbor `peer` received `qid` from, or kInvalidPeer when it holds
  /// no hop: the query was cleaned up, or `peer` left since it saw the copy.
  PeerId NextHop(QueryId qid, PeerId peer) const {
    auto query = by_query_.find(qid);
    if (query == by_query_.end()) return kInvalidPeer;
    auto hop = query->second.find(peer);
    return hop == query->second.end() ? kInvalidPeer : hop->second;
  }

  /// Forgets `qid` everywhere on the shard (its cleanup event).
  void Erase(QueryId qid) { by_query_.erase(qid); }

  /// Drops `peer`'s hop from every live query: a departing peer's session
  /// state dies with it, so after a rejoin it accepts a later copy of the
  /// same query. Walks the query table in table order, which cannot reach
  /// results: each step erases one key from one query's own table, and
  /// erases of distinct keys commute.
  void DropPeer(PeerId peer) {
    for (auto& [qid, hops] : by_query_) hops.erase(peer);
  }

  /// Queries with a hop table (emptied ones included, until cleanup).
  size_t query_count() const { return by_query_.size(); }

 private:
  FlatMap<QueryId, FlatMap<PeerId, PeerId>> by_query_;
  common::Arena* arena_ = nullptr;
};

}  // namespace locaware::core

// Chord DHT engine plumbing: recursively routed query lookups and
// publishes, stabilization under churn — all shard-safe messages through
// the event queue, never direct cross-peer reads. Wire contract and
// invariants are documented in src/dht/README.md.
#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "core/engine.h"

namespace locaware::core {

namespace {

/// Per-(keyword, file) provider cap in an owner's store: bounds arena growth
/// the way ri.max_providers_per_file bounds the unstructured index.
constexpr size_t kMaxStoredProvidersPerFile = 8;

/// Routing-loop circuit breaker for lookups and routed stores. A consistent
/// 2^64 ring resolves in at most 64 halvings; anything past that is repair
/// lag chasing its own tail.
constexpr uint32_t kMaxLookupHops = 64;

// Every DHT delivery closure ([this, peer, message]) must ride the
// zero-allocation inline event path like the rest of the data plane.
static_assert(sizeof(overlay::DhtLookupMessage) + 2 * sizeof(void*) <=
                  sim::kEventInlineBytes,
              "DhtLookup closure exceeds the inline event budget");
static_assert(sizeof(overlay::DhtResponseMessage) + 2 * sizeof(void*) <=
                  sim::kEventInlineBytes,
              "DhtResponse closure exceeds the inline event budget");
static_assert(sizeof(overlay::DhtStoreMessage) + 2 * sizeof(void*) <=
                  sim::kEventInlineBytes,
              "DhtStore closure exceeds the inline event budget");

/// The originator a routed message belongs to, and its session epoch.
std::pair<PeerId, uint32_t> OriginOf(const overlay::DhtStoreMessage& m) {
  return {m.publisher, m.publisher_epoch};
}
std::pair<PeerId, uint32_t> OriginOf(const overlay::DhtLookupMessage& m) {
  return {m.initiator, m.initiator_epoch};
}

}  // namespace

template <typename Msg>
void Engine::DhtRoute(PeerId at, Msg msg) {
  const dht::RingId key = dht::RingIdOfKey(catalog_.KeywordFnv(msg.kw));
  const dht::HopDecision hd = dht::NextHop(*node(at).dht, at, key);
  if (hd.done && hd.next == kInvalidPeer) {
    DhtAtOwner(at, msg);  // alone on the ring: `at` owns every key
    return;
  }
  // Past the hop cap the message is dropped: the next republish retries a
  // store, and a lookup's query fails at its deadline.
  if (msg.hops >= kMaxLookupHops) return;
  ++msg.hops;
  msg.to_owner = hd.done;
  const size_t bytes = EstimateSizeBytes(msg, catalog_);
  if constexpr (std::is_same_v<Msg, overlay::DhtStoreMessage>) {
    CollectorAt(at).AddDhtStoreTraffic(1, bytes);
  } else {
    // Lookup hops are search traffic, charged to the query's slot like
    // forwarded query copies.
    const size_t slot = SlotOf(shard_of(at), msg.qid);
    if (slot != SIZE_MAX) {
      metrics::QueryRecord* record = CollectorAt(at).Record(slot);
      ++record->query_msgs;
      record->query_bytes += bytes;
    }
  }
  const PeerId next = hd.next;
  ScheduleFromNode(at, next, OneWayDelay(at, next),
                   [this, next, msg] { DeliverDht(next, msg); });
}

template <typename Msg>
void Engine::DeliverDht(PeerId to, const Msg& msg) {
  if (!graph_->IsAlive(to)) return;  // lost on a dead hop
  // A message from an ended session is stale by definition, at every hop
  // (the DeliverLinkProbe pattern): the publisher's rejoin republishes
  // everything it still shares, and the initiator's query died with it.
  const auto [origin, epoch] = OriginOf(msg);
  if (config_.churn.enabled &&
      (!churn_timeline_.IsOnlineAt(origin, sim_->Now()) ||
       churn_timeline_.SessionEpochAt(origin, sim_->Now()) != epoch)) {
    return;
  }
  if (msg.to_owner) {
    DhtAtOwner(to, msg);
  } else {
    DhtRoute(to, msg);
  }
}

void Engine::StartDhtQueryLookup(const overlay::QueryMessage& query) {
  CollectorAt(query.origin).AddDhtLookup();
  overlay::DhtLookupMessage lookup;
  lookup.initiator = query.origin;
  lookup.initiator_epoch = graph_->session_epoch(query.origin);
  lookup.kw = query.route_kw;
  lookup.qid = query.qid;
  DhtRoute(query.origin, lookup);
}

void Engine::DhtAtOwner(PeerId owner, const overlay::DhtLookupMessage& lookup) {
  if (owner == lookup.initiator) {
    // The initiator owns the key: no wire traffic.
    DhtServeFromOwnStore(owner, lookup.kw, lookup.qid);
    CollectorAt(owner).AddDhtHops(lookup.hops);
    return;
  }
  overlay::DhtResponseMessage reply;
  reply.responder = owner;
  reply.qid = lookup.qid;
  reply.initiator_epoch = lookup.initiator_epoch;
  reply.hops = lookup.hops;
  const auto& store = node(owner).dht->store;
  auto stored = store.find(lookup.kw);
  if (stored != store.end()) {
    // Group the (insertion-ordered, node-local) list by file, capping each
    // record's provider list like the unstructured response path does.
    const sim::SimTime now = sim_->Now();
    for (const dht::StoredProvider& sp : stored->second) {
      if (sp.expires_at <= now) continue;
      overlay::ResponseRecord* rec = nullptr;
      for (overlay::ResponseRecord& r : reply.records) {
        if (r.file == sp.file) {
          rec = &r;
          break;
        }
      }
      if (rec == nullptr) {
        overlay::ResponseRecord fresh;
        fresh.file = sp.file;
        fresh.from_index = true;
        reply.records.push_back(std::move(fresh));
        rec = &reply.records.back();
      }
      if (rec->providers.size() < config_.params.max_response_providers) {
        rec->providers.push_back(overlay::ProviderInfo{sp.provider, sp.loc_id});
      }
    }
  }

  // The records reply is a response (so a DHT-answered query satisfies the
  // response-accounting invariants exactly like a cache hit).
  const size_t slot = SlotOf(shard_of(owner), lookup.qid);
  if (slot != SIZE_MAX) {
    metrics::QueryRecord* record = CollectorAt(owner).Record(slot);
    ++record->response_msgs;
    record->response_bytes += EstimateSizeBytes(reply, catalog_);
  }
  const PeerId initiator = lookup.initiator;
  ScheduleFromNode(owner, initiator, OneWayDelay(owner, initiator),
                   [this, initiator, reply = std::move(reply)] {
                     DeliverDhtResponse(initiator, std::move(reply));
                   });
}

void Engine::DeliverDhtResponse(PeerId to, overlay::DhtResponseMessage msg) {
  // An initiator that left, or left and rejoined, dropped its query with the
  // session it was asked in.
  if (!graph_->IsAlive(to) || graph_->session_epoch(to) != msg.initiator_epoch) {
    return;
  }
  ShardState& shard = shards_[shard_of(to)];
  auto pending = shard.pending.find(msg.qid);
  if (pending != shard.pending.end()) {
    PendingQuery& pq = pending->second;
    bool matched = false;
    for (overlay::ResponseRecord& rec : msg.records) {
      // The owner indexes one keyword; the query may demand several.
      if (!catalog_.MatchesSorted(rec.file, pq.keywords)) continue;
      matched = true;
      pq.offers.push_back(PendingQuery::Offer{std::move(rec), msg.responder});
    }
    if (matched) {
      metrics::QueryRecord* record = shard.metrics.Record(pq.slot);
      ++record->responses_received;
      if (record->first_response_at == 0) {
        record->first_response_at = sim_->Now();
        record->first_response_hops = msg.hops;
      }
    }
  }
  CollectorAt(to).AddDhtHops(msg.hops);
}

void Engine::DhtAtOwner(PeerId owner, const overlay::DhtStoreMessage& store) {
  dht::RoutingState& rt = *node(owner).dht;
  auto [it, inserted] = rt.store.try_emplace(store.kw);
  if (inserted) it->second.set_arena(arenas_[shard_of(owner)].get());
  dht::StoreList& list = it->second;
  const sim::SimTime expires =
      sim_->Now() + 2 * config_.params.dht_republish_interval;
  const overlay::ProviderInfo& provider = store.provider;
  size_t same_file = 0;
  for (dht::StoredProvider& sp : list) {
    if (sp.file != store.file) continue;
    if (sp.provider == provider.peer) {
      sp.expires_at = expires;  // re-publish refreshes the TTL
      sp.loc_id = provider.loc_id;
      return;
    }
    ++same_file;
  }
  if (same_file >= kMaxStoredProvidersPerFile) return;
  list.push_back(dht::StoredProvider{store.file, provider.peer, provider.loc_id, expires});
}

void Engine::DhtServeFromOwnStore(PeerId initiator, KeywordId kw, QueryId qid) {
  ShardState& shard = shards_[shard_of(initiator)];
  auto pending = shard.pending.find(qid);
  if (pending == shard.pending.end()) return;  // finalized already
  PendingQuery& pq = pending->second;
  dht::RoutingState& rt = *node(initiator).dht;
  auto stored = rt.store.find(kw);
  if (stored == rt.store.end()) return;
  const sim::SimTime now = sim_->Now();
  for (const dht::StoredProvider& sp : stored->second) {
    if (sp.expires_at <= now) continue;
    if (!catalog_.MatchesSorted(sp.file, pq.keywords)) continue;
    overlay::ResponseRecord rec;
    rec.file = sp.file;
    rec.from_index = true;
    rec.providers.push_back(overlay::ProviderInfo{sp.provider, sp.loc_id});
    pq.offers.push_back(PendingQuery::Offer{std::move(rec), initiator});
  }
  // No responses_received bump: nothing crossed the wire, matching the
  // local-index path — FinalizeQuery classifies the answer kLocalIndex.
}

void Engine::DhtMaintenance(PeerId p) {
  dht::RoutingState& rt = *node(p).dht;
  if (config_.churn.enabled) DhtStabilize(p);

  const sim::SimTime now = sim_->Now();
  // Sentinel check first: Now() - kNeverPublished would overflow.
  if (rt.last_publish == dht::kNeverPublished ||
      now - rt.last_publish >= config_.params.dht_republish_interval) {
    rt.last_publish = now;
    DhtPublish(p);
  }

  // Expire dead records. Which keys expire is content-determined, but the
  // erase pass must not run mid-iteration, and sorting keeps the arena
  // traffic in a canonical order (collect-and-sort rule).
  std::vector<KeywordId> expired_keys;
  for (const auto& slot : rt.store) {
    for (const dht::StoredProvider& sp : slot.second) {
      if (sp.expires_at <= now) {
        expired_keys.push_back(slot.first);
        break;
      }
    }
  }
  std::sort(expired_keys.begin(), expired_keys.end());
  for (KeywordId kw : expired_keys) {
    auto it = rt.store.find(kw);
    dht::StoreList& list = it->second;
    dht::StoredProvider* keep = list.begin();
    for (dht::StoredProvider& sp : list) {
      if (sp.expires_at > now) *keep++ = sp;
    }
    list.erase(keep, list.end());
    if (list.empty()) rt.store.erase(it);
  }
}

void Engine::DhtStabilize(PeerId p) {
  const sim::SimTime now = sim_->Now();
  dht::ComputeTables(dht_ring_, p, config_.params.dht_successors,
                     config_.params.dht_fingers,
                     [&](PeerId c) { return churn_timeline_.IsOnlineAt(c, now); },
                     node(p).dht.get());
}

void Engine::DhtPublish(PeerId p) {
  const NodeState& n = node(p);
  overlay::DhtStoreMessage store;
  store.publisher = p;
  store.publisher_epoch = graph_->session_epoch(p);
  store.provider = overlay::ProviderInfo{p, n.loc_id};
  for (FileId f : n.file_store) {
    store.file = f;
    for (KeywordId kw : catalog_.sorted_keywords(f)) {
      store.kw = kw;
      DhtRoute(p, store);
    }
  }
}

}  // namespace locaware::core

// Chord DHT engine plumbing: iterative query lookups, recursively
// routed publishes, stabilization under churn — all shard-safe messages
// through the event queue, never direct cross-peer reads. Wire contract and
// invariants are documented in src/dht/README.md.
#include <algorithm>
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

}  // namespace

void Engine::StartDhtQueryLookup(const overlay::QueryMessage& query) {
  const PeerId origin = query.origin;
  dht::RoutingState& rt = *node(origin).dht;
  metrics::MetricsCollector& collector = CollectorAt(origin);
  collector.AddDhtLookup();

  const dht::RingId key = dht::RingIdOfKey(catalog_.KeywordFnv(query.route_kw));
  const dht::HopDecision hd = dht::NextHop(rt, origin, key);
  if (hd.done && hd.next == kInvalidPeer) {
    // Alone on the ring: the origin owns every key. No wire traffic.
    DhtServeFromOwnStore(origin, query.route_kw, query.qid);
    collector.AddDhtHops(0);
    return;
  }

  // Session ids combine the initiator with a node-local counter advancing in
  // node-local event order — shard-count invariant, never reused (the
  // counter survives departures).
  const uint64_t session =
      (static_cast<uint64_t>(origin) << 32) | (rt.next_session++ & 0xffffffffULL);
  dht::LookupState st;
  st.qid = query.qid;
  st.kw = query.route_kw;
  st.key = key;
  st.asked = hd.next;
  st.fetching = hd.done;  // owner already known: go straight to the fetch
  st.hops = 1;
  st.started_at = sim_->Now();
  rt.lookups.try_emplace(session, st);
  DhtSendLookup(origin, session, hd.next,
                hd.done ? overlay::DhtLookupMode::kGetProviders
                        : overlay::DhtLookupMode::kRoute);
}

void Engine::DhtRouteStore(PeerId at, overlay::DhtStoreMessage store) {
  const dht::RingId key = dht::RingIdOfKey(catalog_.KeywordFnv(store.kw));
  const dht::HopDecision hd = dht::NextHop(*node(at).dht, at, key);
  if (hd.done && hd.next == kInvalidPeer) {
    DhtStoreLocal(at, store.kw, store.file, store.provider);  // alone: ours
    return;
  }
  // Past the hop cap the store is dropped; the next republish retries.
  if (store.hops >= kMaxLookupHops) return;
  ++store.hops;
  store.to_owner = hd.done;
  CollectorAt(at).AddDhtStoreTraffic(1, EstimateSizeBytes(store, catalog_));
  const PeerId next = hd.next;
  ScheduleFromNode(at, next, OneWayDelay(at, next),
                   [this, next, store] { DeliverDhtStore(next, store); });
}

void Engine::DhtSendLookup(PeerId initiator, uint64_t session, PeerId to,
                           overlay::DhtLookupMode mode) {
  dht::RoutingState& rt = *node(initiator).dht;
  auto it = rt.lookups.find(session);
  LOCAWARE_CHECK(it != rt.lookups.end()) << "send for a dead DHT session";
  const dht::LookupState& st = it->second;

  overlay::DhtLookupMessage msg;
  msg.initiator = initiator;
  msg.initiator_epoch = graph_->session_epoch(initiator);
  msg.session = session;
  msg.key = st.key;
  msg.kw = st.kw;
  msg.qid = st.qid;
  msg.mode = mode;

  // Lookup traffic is search traffic, charged to the query's slot like
  // forwarded query copies.
  const size_t slot = SlotOf(shard_of(initiator), st.qid);
  if (slot != SIZE_MAX) {
    metrics::QueryRecord* record = CollectorAt(initiator).Record(slot);
    ++record->query_msgs;
    record->query_bytes += EstimateSizeBytes(msg, catalog_);
  }
  ScheduleFromNode(initiator, to, OneWayDelay(initiator, to),
                   [this, to, msg] { DeliverDhtLookup(to, msg); });
}

void Engine::DeliverDhtLookup(PeerId to, const overlay::DhtLookupMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // lost on a dead peer
  // Reject requests from ended sessions (the DeliverLinkProbe pattern): the
  // initiator's lookup state died with its session, and a rejoin's fresh
  // epoch must not resurrect stale traffic.
  if (config_.churn.enabled &&
      (!churn_timeline_.IsOnlineAt(msg.initiator, sim_->Now()) ||
       churn_timeline_.SessionEpochAt(msg.initiator, sim_->Now()) !=
           msg.initiator_epoch)) {
    return;
  }
  dht::RoutingState& rt = *node(to).dht;

  overlay::DhtResponseMessage reply;
  reply.responder = to;
  reply.session = msg.session;
  if (msg.mode == overlay::DhtLookupMode::kGetProviders) {
    reply.done = true;
    reply.next = to;
    auto stored = rt.store.find(msg.kw);
    if (stored != rt.store.end()) {
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
  } else {
    const dht::HopDecision hd = dht::NextHop(rt, to, msg.key);
    reply.done = hd.done;
    // NextHop's "done with no successor" means the queried node is alone and
    // owns everything — name it as the owner rather than abort the lookup.
    reply.next = (hd.done && hd.next == kInvalidPeer) ? to : hd.next;
  }

  // The route replies are search traffic too; the final records reply is a
  // response (so a DHT-answered query satisfies the response-accounting
  // invariants exactly like a cache hit).
  const size_t slot = SlotOf(shard_of(to), msg.qid);
  if (slot != SIZE_MAX) {
    metrics::QueryRecord* record = CollectorAt(to).Record(slot);
    const size_t bytes = EstimateSizeBytes(reply, catalog_);
    if (msg.mode == overlay::DhtLookupMode::kGetProviders) {
      ++record->response_msgs;
      record->response_bytes += bytes;
    } else {
      ++record->query_msgs;
      record->query_bytes += bytes;
    }
  }
  const PeerId initiator = msg.initiator;
  ScheduleFromNode(to, initiator, OneWayDelay(to, initiator),
                   [this, initiator, reply = std::move(reply)] {
                     DeliverDhtResponse(initiator, std::move(reply));
                   });
}

void Engine::DeliverDhtResponse(PeerId to, overlay::DhtResponseMessage msg) {
  if (!graph_->IsAlive(to)) return;  // initiator left; its sessions died
  dht::RoutingState& rt = *node(to).dht;
  auto it = rt.lookups.find(msg.session);
  if (it == rt.lookups.end()) return;  // expired or already completed
  dht::LookupState& st = it->second;

  if (st.fetching) {
    // Final fetch completed: fold matching records into the pending query.
    ShardState& shard = shards_[shard_of(to)];
    auto pending = shard.pending.find(st.qid);
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
          record->first_response_hops = st.hops;
        }
      }
    }
    CollectorAt(to).AddDhtHops(st.hops);
    rt.lookups.erase(msg.session);
    return;
  }

  if (!msg.done) {
    // No progress (the responder had no better candidate, or we are looping)
    // is a dead end: drop the session. The failure surfaces at the deadline.
    if (msg.next == kInvalidPeer || msg.next == st.asked ||
        st.hops >= kMaxLookupHops) {
      rt.lookups.erase(msg.session);
      return;
    }
    st.asked = msg.next;
    ++st.hops;
    DhtSendLookup(to, msg.session, st.asked, overlay::DhtLookupMode::kRoute);
    return;
  }

  const PeerId owner = msg.next;
  if (owner == to) {
    DhtServeFromOwnStore(to, st.kw, st.qid);
    CollectorAt(to).AddDhtHops(st.hops);
    rt.lookups.erase(msg.session);
    return;
  }
  st.asked = owner;
  st.fetching = true;
  ++st.hops;
  DhtSendLookup(to, msg.session, owner, overlay::DhtLookupMode::kGetProviders);
}

void Engine::DeliverDhtStore(PeerId to, const overlay::DhtStoreMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // lost on a dead hop
  // A store from an ended session is stale by definition, at every hop; the
  // publisher's rejoin republishes everything it still shares.
  if (config_.churn.enabled &&
      (!churn_timeline_.IsOnlineAt(msg.publisher, sim_->Now()) ||
       churn_timeline_.SessionEpochAt(msg.publisher, sim_->Now()) !=
           msg.publisher_epoch)) {
    return;
  }
  if (msg.to_owner) {
    DhtStoreLocal(to, msg.kw, msg.file, msg.provider);
  } else {
    DhtRouteStore(to, msg);
  }
}

void Engine::DhtStoreLocal(PeerId owner, KeywordId kw, FileId file,
                           const overlay::ProviderInfo& provider) {
  dht::RoutingState& rt = *node(owner).dht;
  auto [it, inserted] = rt.store.try_emplace(kw);
  if (inserted) it->second.set_arena(arenas_[shard_of(owner)].get());
  dht::StoreList& list = it->second;
  const sim::SimTime expires =
      sim_->Now() + 2 * config_.params.dht_republish_interval;
  size_t same_file = 0;
  for (dht::StoredProvider& sp : list) {
    if (sp.file != file) continue;
    if (sp.provider == provider.peer) {
      sp.expires_at = expires;  // re-publish refreshes the TTL
      sp.loc_id = provider.loc_id;
      return;
    }
    ++same_file;
  }
  if (same_file >= kMaxStoredProvidersPerFile) return;
  list.push_back(dht::StoredProvider{file, provider.peer, provider.loc_id, expires});
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

  // Sweep lookup sessions whose outcome no longer matters: the query's
  // deadline has long passed (or the route died en route).
  std::vector<uint64_t> stale;
  for (const auto& slot : rt.lookups) {
    if (slot.second.started_at + 2 * config_.params.query_deadline < now) {
      stale.push_back(slot.first);
    }
  }
  std::sort(stale.begin(), stale.end());
  for (uint64_t session : stale) rt.lookups.erase(session);
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
      DhtRouteStore(p, store);
    }
  }
}

}  // namespace locaware::core

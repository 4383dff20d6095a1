// PR 10: Chord ring arithmetic, table construction, lookup convergence, and
// the churn-fuzz findability invariant ("every live published key is
// findable after stabilization"). The pure-table tests drive dht/routing.h
// directly against the Ring's ground-truth successor; the engine tests pin
// the protocol-level counters, what each recursively routed lookup and
// publish costs, where a publish lands, and how a lookup of an ended
// initiator session dies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/config_io.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "dht/ring.h"
#include "dht/routing.h"
#include "metrics/report.h"
#include "overlay/churn.h"
#include "sim/sim_time.h"

namespace locaware::dht {
namespace {

TEST(DhtRingTest, InIntervalHalfOpenAndWrapping) {
  // Plain interval (10, 20].
  EXPECT_FALSE(InInterval(10, 10, 20));  // open at a
  EXPECT_TRUE(InInterval(11, 10, 20));
  EXPECT_TRUE(InInterval(20, 10, 20));  // closed at b
  EXPECT_FALSE(InInterval(21, 10, 20));
  EXPECT_FALSE(InInterval(5, 10, 20));
  // Wrapped interval (2^64-5, 3].
  const RingId hi = ~RingId{0} - 4;
  EXPECT_TRUE(InInterval(hi + 1, hi, 3));
  EXPECT_TRUE(InInterval(0, hi, 3));
  EXPECT_TRUE(InInterval(3, hi, 3));
  EXPECT_FALSE(InInterval(4, hi, 3));
  EXPECT_FALSE(InInterval(hi, hi, 3));
  // Empty span = whole circle (single-member ring owns everything).
  EXPECT_TRUE(InInterval(0, 7, 7));
  EXPECT_TRUE(InInterval(~RingId{0}, 7, 7));
  EXPECT_TRUE(InInterval(7, 7, 7));
}

TEST(DhtRingTest, FingerTargetsDoubleAndWrap) {
  EXPECT_EQ(FingerTarget(0, 0), 1u);
  EXPECT_EQ(FingerTarget(0, 63), RingId{1} << 63);
  EXPECT_EQ(FingerTarget(100, 3), 108u);
  // Wrap: the top finger of a high ring position lands low.
  const RingId n = ~RingId{0} - 10;
  EXPECT_EQ(FingerTarget(n, 4), n + 16);  // wraps via unsigned arithmetic
  EXPECT_LT(FingerTarget(n, 4), RingId{32});
}

TEST(DhtRingTest, RingDistanceWraps) {
  EXPECT_EQ(RingDistance(5, 9), 4u);
  EXPECT_EQ(RingDistance(9, 5), ~RingId{0} - 3);  // the long way around
  EXPECT_EQ(RingDistance(7, 7), 0u);
}

TEST(DhtRingTest, PeerRingIdsAreCollisionFree) {
  constexpr size_t kPeers = 100000;
  const Ring ring = Ring::Build(kPeers);
  ASSERT_EQ(ring.size(), kPeers);
  for (size_t i = 1; i < kPeers; ++i) {
    EXPECT_LT(ring.IdAt(i - 1), ring.IdAt(i));  // strictly sorted => distinct
  }
}

TEST(DhtRingTest, SuccessorOfMatchesLinearScanOracle) {
  constexpr size_t kPeers = 64;
  const Ring ring = Ring::Build(kPeers);
  const auto online = [](PeerId p) { return p % 3 != 0; };  // drop a third
  for (uint64_t probe = 0; probe < 300; ++probe) {
    const RingId key = Mix64(probe * 0x9e3779b97f4a7c15ULL + 1);
    // Oracle: the online member minimizing clockwise distance from the key.
    PeerId want = kInvalidPeer;
    RingId want_dist = 0;
    for (size_t i = 0; i < ring.size(); ++i) {
      if (!online(ring.PeerAt(i))) continue;
      const RingId d = RingDistance(key, ring.IdAt(i));
      if (want == kInvalidPeer || d < want_dist) {
        want = ring.PeerAt(i);
        want_dist = d;
      }
    }
    EXPECT_EQ(ring.SuccessorOf(key, online), want) << "probe " << probe;
  }
  // Nobody online: no owner.
  EXPECT_EQ(ring.SuccessorOf(12345, [](PeerId) { return false; }), kInvalidPeer);
}

TEST(DhtTablesTest, SuccessorListIsNearestOnlineClockwise) {
  constexpr size_t kPeers = 40;
  const Ring ring = Ring::Build(kPeers);
  const auto online = [](PeerId p) { return p % 4 != 1; };
  for (PeerId self = 0; self < kPeers; ++self) {
    RoutingState rt;
    ComputeTables(ring, self, /*num_successors=*/4, /*num_fingers=*/24, online, &rt);
    ASSERT_LE(rt.successors.size(), 4u);
    // Walk the ring from self's position and collect the oracle list.
    std::vector<PeerId> want;
    size_t i = ring.IndexOfFirstAtOrAfter(RingIdOfPeer(self) + 1);
    for (size_t step = 0; step + 1 < kPeers && want.size() < 4;
         ++step, i = (i + 1 == kPeers) ? 0 : i + 1) {
      const PeerId c = ring.PeerAt(i);
      if (c == self) break;
      if (online(c)) want.push_back(c);
    }
    ASSERT_EQ(rt.successors.size(), want.size()) << "peer " << self;
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(rt.successors[k], want[k]) << "peer " << self << " slot " << k;
    }
    // Fingers never name self or an offline peer.
    for (const auto& slot : rt.fingers) {
      EXPECT_NE(slot.second, self);
      EXPECT_TRUE(online(slot.second));
    }
  }
}

TEST(DhtTablesTest, AloneOnTheRingOwnsEverything) {
  const Ring ring = Ring::Build(8);
  RoutingState rt;
  // Only peer 5 is online: its tables are empty and NextHop says "mine".
  ComputeTables(ring, 5, 4, 24, [](PeerId p) { return p == 5; }, &rt);
  EXPECT_TRUE(rt.successors.empty());
  EXPECT_EQ(rt.fingers.size(), 0u);
  const HopDecision hd = NextHop(rt, 5, /*key=*/0xdeadbeef);
  EXPECT_TRUE(hd.done);
  EXPECT_EQ(hd.next, kInvalidPeer);
}

// Walks a lookup over precomputed per-peer tables, exactly as the engine
// routes one (`cur` takes the step, the message moves on to its
// HopDecision). Returns the owner the walk terminates at; sets *hops to the
// number of routing steps taken.
PeerId WalkLookup(const std::vector<RoutingState>& tables, PeerId start, RingId key,
                  uint32_t* hops) {
  PeerId cur = start;
  for (uint32_t h = 0; h < 200; ++h) {
    const HopDecision hd = NextHop(tables[cur], cur, key);
    if (hd.done) {
      *hops = h;
      return hd.next == kInvalidPeer ? cur : hd.next;
    }
    cur = hd.next;
  }
  *hops = 200;
  return kInvalidPeer;  // did not converge
}

TEST(DhtLookupTest, StaticRingConvergesToTrueOwnerInLogHops) {
  constexpr size_t kPeers = 500;
  const Ring ring = Ring::Build(kPeers);
  const auto all_online = [](PeerId) { return true; };
  std::vector<RoutingState> tables(kPeers);
  for (PeerId p = 0; p < kPeers; ++p) {
    ComputeTables(ring, p, /*num_successors=*/4, /*num_fingers=*/24, all_online,
                  &tables[p]);
  }
  uint64_t total_hops = 0;
  uint32_t max_hops = 0;
  constexpr uint64_t kLookups = 500;
  for (uint64_t i = 0; i < kLookups; ++i) {
    const RingId key = RingIdOfKey(0x100001b3ULL * (i + 7));  // FNV-flavored keys
    const PeerId start = static_cast<PeerId>((i * 131) % kPeers);
    const PeerId want = ring.SuccessorOf(key, all_online);
    uint32_t hops = 0;
    EXPECT_EQ(WalkLookup(tables, start, key, &hops), want) << "lookup " << i;
    total_hops += hops;
    max_hops = std::max(max_hops, hops);
  }
  const double log_n = std::log2(static_cast<double>(kPeers));  // ~9
  EXPECT_LE(static_cast<double>(total_hops) / kLookups, 2.0 * log_n)
      << "mean hops is not O(log n)";
  EXPECT_LE(max_hops, 40u);
}

overlay::ChurnModel FuzzChurn() {
  overlay::ChurnConfig cfg;
  cfg.enabled = true;
  cfg.mean_session_s = 60.0;
  cfg.mean_offline_s = 25.0;
  return std::move(overlay::ChurnModel::Create(cfg)).ValueOrDie();
}

// The PR 10 standing invariant: after stabilization (tables recomputed from
// the churn timeline at time t), a lookup started at ANY online peer for ANY
// key terminates at the ring's true online owner — so every record the
// republish cycle placed there is findable.
TEST(DhtChurnFuzzTest, EveryKeyFindableAfterStabilization) {
  constexpr size_t kPeers = 120;
  const Ring ring = Ring::Build(kPeers);
  for (uint64_t seed : {3u, 17u, 92u}) {
    const auto timeline = overlay::ChurnTimeline::Build(
        FuzzChurn(), seed, kPeers, /*horizon=*/600 * sim::kSecond);
    for (sim::SimTime t = 50 * sim::kSecond; t <= 550 * sim::kSecond;
         t += 125 * sim::kSecond) {
      const auto online = [&](PeerId p) { return timeline.IsOnlineAt(p, t); };
      size_t online_count = 0;
      for (PeerId p = 0; p < kPeers; ++p) online_count += online(p);
      ASSERT_GT(online_count, 1u) << "degenerate churn sample";
      std::vector<RoutingState> tables(kPeers);
      for (PeerId p = 0; p < kPeers; ++p) {
        if (online(p)) ComputeTables(ring, p, 4, 24, online, &tables[p]);
      }
      for (uint64_t i = 0; i < 60; ++i) {
        const RingId key = RingIdOfKey(Mix64(seed * 1000 + i));
        const PeerId want = ring.SuccessorOf(key, online);
        // Start at every 7th online peer to cover diverse vantage points.
        for (PeerId start = static_cast<PeerId>(i % 7); start < kPeers; start += 7) {
          if (!online(start)) continue;
          uint32_t hops = 0;
          EXPECT_EQ(WalkLookup(tables, start, key, &hops), want)
              << "seed " << seed << " t " << t << " key " << i << " from " << start;
          EXPECT_LE(hops, 64u);
        }
      }
    }
  }
}

core::ExperimentConfig SmallConfig(core::ProtocolKind kind, uint64_t seed,
                                   size_t num_queries = 200) {
  core::ExperimentConfig cfg = core::MakePaperConfig(kind, num_queries, seed);
  cfg.num_peers = 150;
  cfg.underlay.num_routers = 40;
  cfg.catalog.num_files = 300;
  cfg.catalog.keyword_pool_size = 900;
  cfg.workload.query_rate_per_peer_s = 0.01;
  return cfg;
}

TEST(DhtEngineTest, PureDhtResolvesQueriesThroughLookups) {
  auto e = std::move(core::Engine::Create(SmallConfig(core::ProtocolKind::kDht, 7)))
               .ValueOrDie();
  e->Run();
  const metrics::Summary s = metrics::Summarize(e->metrics());
  // Every query that was not a local-store hit went through the DHT;
  // publishes moved store bytes.
  EXPECT_GT(s.dht_lookups, 150u);
  EXPECT_LE(s.dht_lookups, 200u);
  EXPECT_GT(s.dht_store_msgs, 0u);
  EXPECT_GT(s.dht_store_bytes, s.dht_store_msgs * 23);  // above header floor
  EXPECT_GT(s.success_rate, 0.5);  // structured lookup finds published keys
  // Mean hops per lookup stays O(log n) for 150 peers (~7.2 bits).
  EXPECT_LT(static_cast<double>(s.dht_hops) / static_cast<double>(s.dht_lookups),
            2.0 * std::log2(150.0));
}

TEST(DhtEngineTest, PaperProtocolsNeverTouchDhtCounters) {
  for (core::ProtocolKind kind :
       {core::ProtocolKind::kFlooding, core::ProtocolKind::kLocaware}) {
    auto e = std::move(core::Engine::Create(SmallConfig(kind, 7))).ValueOrDie();
    e->Run();
    const metrics::Summary s = metrics::Summarize(e->metrics());
    EXPECT_EQ(s.dht_lookups, 0u);
    EXPECT_EQ(s.dht_hops, 0u);
    EXPECT_EQ(s.dht_store_msgs, 0u);
    EXPECT_EQ(s.dht_store_bytes, 0u);
  }
}

/// DHT state that can hold lookup sessions: a session table or the counter
/// that names sessions.
template <typename State>
concept HoldsLookupSessions =
    requires(State s) { s.lookups; } || requires(State s) { s.next_session; };

/// A static DHT world whose run spans exactly one publish round: ticks every
/// second put every peer's first publish ahead of the first download (the
/// 5 s deadline), and the run ends long before the 600 s republish.
core::ExperimentConfig OneRoundConfig() {
  core::ExperimentConfig cfg = SmallConfig(core::ProtocolKind::kDht, 7);
  cfg.params.maintenance_interval = sim::kSecond;
  return cfg;
}

TEST(DhtPublishTest, OneRoundPlacesEveryPairAtItsOwnerForRouteLengthPlusOne) {
  auto e = std::move(core::Engine::Create(OneRoundConfig())).ValueOrDie();
  const catalog::FileCatalog& files = e->catalog();
  const Ring& ring = e->dht_ring();
  ASSERT_LT(e->workload().queries().back().submit_time,
            OneRoundConfig().params.dht_republish_interval);

  // What the round publishes: every (keyword, file) of every file store, read
  // before any download. Each store costs its route length + 1 messages:
  // one per forwarding step on the static tables, one into the owner.
  struct Pair {
    PeerId publisher;
    KeywordId kw;
    FileId file;
  };
  std::vector<Pair> pairs;
  uint64_t want_msgs = 0;
  for (PeerId p = 0; p < e->num_peers(); ++p) {
    for (FileId f : e->node(p).file_store) {
      for (KeywordId kw : files.sorted_keywords(f)) {
        pairs.push_back({p, kw, f});
        const RingId key = RingIdOfKey(files.KeywordFnv(kw));
        for (PeerId at = p;;) {
          const HopDecision hd = NextHop(*e->node(at).dht, at, key);
          ASSERT_NE(hd.next, kInvalidPeer) << "a static ring has no lone peer";
          ++want_msgs;
          if (hd.done) break;
          at = hd.next;
        }
      }
    }
  }
  ASSERT_FALSE(pairs.empty());

  e->Run();
  const metrics::Summary s = metrics::Summarize(e->metrics());
  EXPECT_EQ(s.dht_store_msgs, want_msgs);
  const double log_n = std::ceil(std::log2(static_cast<double>(e->num_peers())));
  EXPECT_LE(static_cast<double>(s.dht_store_msgs),
            static_cast<double>(pairs.size()) * (log_n + 1));

  // Every pair sits in the store of its owner, found by a linear scan for the
  // peer at the least clockwise distance from the key (all peers online).
  for (const Pair& pair : pairs) {
    const RingId key = RingIdOfKey(files.KeywordFnv(pair.kw));
    PeerId owner = kInvalidPeer;
    RingId owner_dist = 0;
    for (size_t i = 0; i < ring.size(); ++i) {
      const RingId d = RingDistance(key, ring.IdAt(i));
      if (owner == kInvalidPeer || d < owner_dist) {
        owner = ring.PeerAt(i);
        owner_dist = d;
      }
    }
    const auto& store = e->node(owner).dht->store;
    auto it = store.find(pair.kw);
    ASSERT_NE(it, store.end()) << "keyword " << pair.kw << " missing at " << owner;
    const auto held = [&](const StoredProvider& sp) {
      return sp.file == pair.file && sp.provider == pair.publisher;
    };
    EXPECT_TRUE(std::any_of(it->second.begin(), it->second.end(), held))
        << "file " << pair.file << " of " << pair.publisher << " missing at " << owner;
  }

  // Publishing opened no session, and no lookup did either: both ride their
  // messages, so no peer's DHT state has a table to hold one in.
  static_assert(!HoldsLookupSessions<RoutingState>);
}

TEST(DhtLookupTest, StaticLookupCostsRouteLengthPlusOne) {
  auto e = std::move(core::Engine::Create(SmallConfig(core::ProtocolKind::kDht, 7)))
               .ValueOrDie();
  const catalog::FileCatalog& files = e->catalog();

  // Each query's route on the static tables, read before the run: the steps
  // from its requester to the owner of its routing keyword (the first
  // sampled one), and whether that owner is another peer.
  struct Route {
    uint64_t length = 0;
    bool remote_owner = false;
  };
  std::map<QueryId, Route> routes;
  for (const catalog::QueryEvent& ev : e->workload().queries()) {
    const RingId key = RingIdOfKey(files.KeywordFnv(ev.keywords.front()));
    Route route;
    PeerId at = ev.requester;
    for (bool done = false; !done;) {
      const HopDecision hd = NextHop(*e->node(at).dht, at, key);
      ASSERT_NE(hd.next, kInvalidPeer) << "a static ring has no lone peer";
      ++route.length;
      at = hd.next;
      done = hd.done;
    }
    route.remote_owner = at != ev.requester;
    routes[ev.id] = route;
  }

  e->Run();
  // One message per step, then one records reply from a remote owner; an
  // owner that is the requester itself serves its own store off the wire.
  uint64_t want_msgs = 0;
  uint64_t search_msgs = 0;
  uint64_t answered = 0;
  for (const metrics::QueryRecord& r : e->metrics().records()) {
    search_msgs += r.TotalSearchMessages();
    if (r.source == metrics::AnswerSource::kLocalStore) continue;  // no lookup
    const Route& route = routes.at(r.qid);
    want_msgs += route.length + (route.remote_owner ? 1 : 0);
    EXPECT_EQ(r.query_msgs, route.length) << "query " << r.qid;
    EXPECT_EQ(r.response_msgs, route.remote_owner ? 1u : 0u) << "query " << r.qid;
    if (route.remote_owner && r.first_response_at != 0) {
      ++answered;
      EXPECT_EQ(r.query_msgs, r.first_response_hops) << "query " << r.qid;
    }
  }
  EXPECT_GT(answered, 100u);
  EXPECT_EQ(search_msgs, want_msgs);
}

/// A DHT world where initiators leave mid-lookup: sessions of ~10 s, gaps
/// of ~50 ms (about one hop, so a reply can outlive its initiator's gap),
/// every one-way delay in [45, 55] ms, dense queries, and owners that hold
/// records (stabilize every second, republish every 5 s).
core::ExperimentConfig FastChurnConfig() {
  core::ExperimentConfig cfg =
      SmallConfig(core::ProtocolKind::kDht, 7, /*num_queries=*/3000);
  cfg.use_uniform_underlay = true;
  cfg.underlay.min_rtt_ms = 90;
  cfg.underlay.max_rtt_ms = 110;
  cfg.workload.query_rate_per_peer_s = 0.1;
  cfg.churn.enabled = true;
  cfg.churn.mean_session_s = 10;
  cfg.churn.mean_offline_s = 0.05;
  cfg.params.maintenance_interval = sim::kSecond;
  cfg.params.dht_republish_interval = 5 * sim::kSecond;
  return cfg;
}

/// End of the session `p` is in at `t` (its next departure), or the max
/// SimTime when it outlives the timeline.
sim::SimTime SessionEnd(const overlay::ChurnTimeline& timeline, PeerId p,
                        sim::SimTime t) {
  const std::vector<sim::SimTime>& tr = timeline.transitions(p);
  auto next = std::upper_bound(tr.begin(), tr.end(), t);
  return next == tr.end() ? std::numeric_limits<sim::SimTime>::max() : *next;
}

TEST(DhtLookupChurnTest, LookupOfAnEndedSessionStopsAtTheNextHop) {
  const core::ExperimentConfig cfg = FastChurnConfig();
  auto e = std::move(core::Engine::Create(cfg)).ValueOrDie();
  e->Run();
  const overlay::ChurnTimeline& timeline = e->churn_timeline();
  // The k-th step of a lookup leaves no earlier than submit + (k - 1) one-way
  // delays, and a hop takes it on only while the initiator's session lasts:
  // a session ending at `end` allows ceil((end - submit) / hop) steps.
  const sim::SimTime hop = sim::FromMs(cfg.underlay.min_rtt_ms / 2);
  size_t cut_short = 0;
  for (const metrics::QueryRecord& r : e->metrics().records()) {
    if (r.query_msgs == 0) continue;  // no lookup left the requester
    const sim::SimTime end = SessionEnd(timeline, r.requester, r.submitted_at);
    if (end - r.submitted_at > cfg.params.query_deadline) continue;
    const uint64_t steps = static_cast<uint64_t>((end - r.submitted_at + hop - 1) / hop);
    EXPECT_LE(r.query_msgs, steps) << "query " << r.qid;
    // Gone before the first hop: nothing reached an owner, nobody replied.
    if (steps == 1) {
      EXPECT_EQ(r.response_msgs, 0u) << "query " << r.qid;
    }
    if (steps <= 2) ++cut_short;
  }
  EXPECT_GT(cut_short, 0u) << "no initiator left within two hops of its lookup";
}

TEST(DhtLookupChurnTest, ReplyToALeftOrRejoinedInitiatorIsDropped) {
  auto e = std::move(core::Engine::Create(FastChurnConfig())).ValueOrDie();
  e->Run();
  const overlay::ChurnTimeline& timeline = e->churn_timeline();
  // Every answer landed in the session that asked: the initiator was online
  // and had not rejoined since submitting.
  size_t answered = 0;
  for (const metrics::QueryRecord& r : e->metrics().records()) {
    if (r.first_response_at == 0) continue;
    ++answered;
    EXPECT_TRUE(timeline.IsOnlineAt(r.requester, r.first_response_at))
        << "query " << r.qid;
    EXPECT_EQ(timeline.SessionEpochAt(r.requester, r.first_response_at),
              timeline.SessionEpochAt(r.requester, r.submitted_at))
        << "query " << r.qid;
  }
  EXPECT_GT(answered, 1000u);
}

/// Keys of the metric JSON's flat "summary" object.
std::set<std::string> SummaryKeys(const std::string& json) {
  const size_t open = json.find('{', json.find("\"summary\""));
  const size_t close = json.find('}', open);
  std::set<std::string> keys;
  for (size_t at = json.find('"', open); at < close; at = json.find('"', at)) {
    const size_t end = json.find('"', at + 1);
    if (json.compare(end + 1, 1, ":") == 0) {
      keys.insert(json.substr(at + 1, end - at - 1));
    }
    at = end + 1;
  }
  return keys;
}

TEST(DhtEngineTest, ResultToJsonCarriesExactlyTheFourDhtCounters) {
  auto run = [](core::ProtocolKind kind) {
    auto result = core::RunExperiment(SmallConfig(kind, 7));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return SummaryKeys(core::ResultToJson(result.ValueOrDie()));
  };
  const std::set<std::string> locaware = run(core::ProtocolKind::kLocaware);
  std::set<std::string> dht_only = run(core::ProtocolKind::kDht);
  for (const std::string& key : locaware) dht_only.erase(key);
  const std::set<std::string> dht_keys = {"dht_lookups", "dht_hops", "dht_store_msgs",
                                          "dht_store_bytes"};
  EXPECT_EQ(dht_only, dht_keys);
  for (const std::string& key : dht_keys) EXPECT_EQ(locaware.count(key), 0u) << key;
}

// The 5000-peer DHT churn world (perfbench's dht_churn): the timeline's
// transitions and the first publish round queue together, and the queue must
// never outgrow what Create reserved for it.
TEST(DhtEngineTest, ChurnWorldQueueStaysWithinItsReservation) {
  core::ExperimentConfig cfg =
      core::MakePaperConfig(core::ProtocolKind::kDht, /*num_queries=*/4000, /*seed=*/42);
  cfg.num_peers = 5000;
  cfg.churn.enabled = true;
  auto e = std::move(core::Engine::Create(cfg)).ValueOrDie();
  e->Run();
  const sim::ShardedSimulator& sim = e->simulator();
  EXPECT_GT(sim.queued_high_water(), 2 * cfg.num_peers);
  EXPECT_LE(sim.queued_high_water(), sim.reserved_events());
}

}  // namespace
}  // namespace locaware::dht

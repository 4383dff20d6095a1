#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/hash.h"
#include "core/provider_selection.h"
#include "net/landmark.h"

namespace locaware::core {

Engine::Engine(const ExperimentConfig& config)
    : config_(config), num_shards_(config.scheduler.shards), root_rng_(config.seed) {
  Rng decisions = root_rng_.Split("decisions");
  decision_seed_ = decisions.NextU64();
  Rng churn = root_rng_.Split("churn");
  churn_seed_ = churn.NextU64();
}

Result<std::unique_ptr<Engine>> Engine::Create(const ExperimentConfig& config) {
  // Normalize nested sizes from the top-level fields so callers set each
  // quantity exactly once.
  ExperimentConfig cfg = config;
  cfg.underlay.num_peers = cfg.num_peers;
  cfg.underlay.num_landmarks = cfg.num_landmarks;

  if (cfg.scheduler.shards == 0) {
    return Status::InvalidArgument("scheduler.shards must be > 0");
  }

  auto engine = std::unique_ptr<Engine>(new Engine(cfg));
  LOCAWARE_RETURN_NOT_OK(engine->Setup());
  return engine;
}

Status Engine::Setup() {
  if (config_.num_landmarks == 0) {
    return Status::InvalidArgument("num_landmarks must be > 0 (locIds need landmarks)");
  }

  // 1. Underlay (physical network + landmarks).
  Rng underlay_rng = root_rng_.Split("underlay");
  if (config_.use_uniform_underlay) {
    net::UniformUnderlayConfig ucfg;
    ucfg.num_peers = config_.num_peers;
    ucfg.num_landmarks = config_.num_landmarks;
    ucfg.min_rtt_ms = config_.underlay.min_rtt_ms;
    ucfg.max_rtt_ms = config_.underlay.max_rtt_ms;
    auto built = net::UniformUnderlay::Build(ucfg, &underlay_rng);
    if (!built.ok()) return built.status();
    underlay_ = std::move(built).ValueOrDie();
  } else {
    auto built = net::GeometricUnderlay::Build(config_.underlay, &underlay_rng);
    if (!built.ok()) return built.status();
    underlay_ = std::move(built).ValueOrDie();
  }
  const std::vector<LocId> loc_ids = net::ComputeAllLocIds(*underlay_);

  // 2. Catalog + workload + initial shared files. Before the shard placement
  // on purpose: the clustered strategy weighs peers by the workload's
  // requester histogram. RNG splits are name-keyed and leave the root
  // untouched, so this reordering changes no stream.
  Rng catalog_rng = root_rng_.Split("catalog");
  auto built_catalog = catalog::FileCatalog::Generate(config_.catalog, &catalog_rng);
  if (!built_catalog.ok()) return built_catalog.status();
  catalog_ = std::move(built_catalog).ValueOrDie();

  if (!config_.trace_path.empty()) {
    // Either trace format (text or binary), sniffed by magic.
    auto loaded = catalog::QueryWorkload::LoadAuto(config_.trace_path, &catalog_);
    if (!loaded.ok()) return loaded.status();
    workload_ = std::move(loaded).ValueOrDie();
    // A trace written against a different universe must not index out of
    // bounds silently. Arrivals stream in workload order (Run), so the
    // trace must also be in submission order.
    const auto& queries = workload_.queries();
    for (size_t i = 1; i < queries.size(); ++i) {
      if (queries[i].submit_time < queries[i - 1].submit_time) {
        return Status::InvalidArgument("trace submit times must be non-decreasing");
      }
    }
    for (const catalog::QueryEvent& ev : queries) {
      if (ev.requester >= config_.num_peers) {
        return Status::InvalidArgument("trace requester exceeds num_peers");
      }
      if (ev.target >= catalog_.num_files()) {
        return Status::InvalidArgument("trace target exceeds catalog size");
      }
    }
  } else {
    Rng workload_rng = root_rng_.Split("workload");
    auto built_workload = catalog::QueryWorkload::Generate(
        config_.workload, catalog_, config_.num_peers, &workload_rng);
    if (!built_workload.ok()) return built_workload.status();
    workload_ = std::move(built_workload).ValueOrDie();
  }

  Rng placement_rng = root_rng_.Split("placement");
  const auto initial_files = catalog::AssignInitialFiles(
      config_.num_peers, config_.files_per_peer, catalog_, &placement_rng);

  // 3. Peer → shard placement: the immutable map every shard_of consumer
  // (ownership asserts, arena binding, event scheduling, slot/route tables,
  // churn owner events, metrics merge) reads for the rest of the run.
  {
    std::vector<size_t> peer_location(config_.num_peers);
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      peer_location[p] = underlay_->LocationOf(p);
    }
    if (config_.scheduler.placement == sim::PlacementStrategy::kClustered) {
      // Expected per-peer load: 1 (baseline liveness/maintenance) + the
      // peer's query count — deterministic integer weights.
      std::vector<uint64_t> peer_weight(config_.num_peers, 1);
      for (const catalog::QueryEvent& ev : workload_.queries()) {
        ++peer_weight[ev.requester];
      }
      placement_ = sim::ShardPlacement::Clustered(
          num_shards_, peer_location, peer_weight, [this](size_t a, size_t b) {
            return underlay_->PairRttLowerBoundMs(a, b);
          });
    } else {
      placement_ = sim::ShardPlacement::Modulo(num_shards_, peer_location);
    }
  }

  // 3b. The simulator. The scalar fallback lookahead is half the underlay's
  // minimum distinct-pair RTT: no cross-shard message can arrive sooner, so
  // every shard may safely run that far past the global minimum event time.
  // On top of it, each shard *pair* gets a tighter bound from the underlay's
  // locality structure (BuildLookaheadMatrix over the placement's location
  // digests), so shards whose peers are all far apart synchronize far less
  // often than the global min would force.
  const sim::SimTime lookahead = sim::FromMs(underlay_->MinPairRttMs() / 2.0);
  if (num_shards_ > 1) {
    if (lookahead <= 0) {
      return Status::InvalidArgument(
          "underlay cannot bound its minimum link latency; shards > 1 needs a "
          "positive conservative lookahead");
    }
    if (config_.params.query_deadline < lookahead) {
      return Status::InvalidArgument(
          "query_deadline below the cross-shard lookahead; cleanup events "
          "would violate the conservative window");
    }
  }
  uses_dht_ = config_.protocol == ProtocolKind::kDht;
  // kDht runs without any response index.
  const bool caches = config_.protocol != ProtocolKind::kFlooding && !uses_dht_;
  const bool is_locaware = config_.protocol == ProtocolKind::kLocaware;
  // The DHT (stabilize, republish) and index expiry have work every
  // interval; everything else a tick does waits for a change (step 7).
  ticks_every_interval_ = uses_dht_ || (caches && config_.params.ri.entry_ttl > 0);

  sim::ShardedSimulatorConfig sim_cfg;
  sim_cfg.num_shards = num_shards_;
  sim_cfg.num_workers = config_.scheduler.workers;
  sim_cfg.lookahead = lookahead;
  if (num_shards_ > 1) {
    sim_cfg.lookahead_matrix = BuildLookaheadMatrix(lookahead);
  }
  sim_cfg.num_sources = static_cast<sim::SourceId>(config_.num_peers) + 1;
  sim_ = std::make_unique<sim::ShardedSimulator>(sim_cfg);
  shards_.resize(num_shards_);

  // 3c. Shard-local arenas, reserved from the placement's peer counts. Every
  // arena-aware container a shard's peers own (overlay adjacency rows, file
  // stores, response-index entry arrays and keyword/provider/posting lists)
  // spills into its shard's arena, so allocation locality matches execution
  // locality and mid-run growth never takes the global allocator's lock.
  constexpr size_t kArenaBytesPerPeer = 64;
  const std::vector<size_t>& shard_peers = placement_.shard_peer_counts();
  arenas_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    arenas_.push_back(std::make_unique<common::Arena>());
    arenas_[s]->Reserve(shard_peers[s] * kArenaBytesPerPeer);
    // The shard's tracking tables draw their flat buffers from its arena;
    // arenas_ is declared before shards_, so the arenas outlive the tables.
    shards_[s].pending.set_arena(arenas_[s].get());
    shards_[s].slot_of.set_arena(arenas_[s].get());
    shards_[s].routes.set_arena(arenas_[s].get());
  }

  // 3d. Overlay.
  Rng overlay_rng = root_rng_.Split("overlay");
  overlay::OverlayConfig ocfg;
  ocfg.num_peers = config_.num_peers;
  ocfg.avg_degree = config_.avg_degree;
  auto built_graph = overlay::OverlayGraph::Generate(ocfg, &overlay_rng);
  if (!built_graph.ok()) return built_graph.status();
  graph_ = std::make_unique<overlay::OverlayGraph>(std::move(built_graph).ValueOrDie());
  graph_->BindArenas([this](PeerId p) { return arenas_[shard_of(p)].get(); });

  // 4. Nodes.
  if (config_.params.num_groups == 0) {
    return Status::InvalidArgument("num_groups must be > 0");
  }
  Rng gid_rng = root_rng_.Split("gids");
  nodes_.resize(config_.num_peers);
  for (PeerId p = 0; p < config_.num_peers; ++p) {
    NodeState& n = nodes_[p];
    n.id = p;
    n.loc_id = loc_ids[p];
    n.gid = static_cast<GroupId>(gid_rng.UniformInt(0, config_.params.num_groups - 1));
    common::Arena* arena = arenas_[shard_of(p)].get();
    n.file_store.set_arena(arena);
    n.file_store.assign(initial_files[p].begin(), initial_files[p].end());
    // Flat per-peer tables draw their buffers from the owner shard's arena
    // too (same provenance rule as the spill vectors above).
    n.neighbor_filters.set_arena(arena);
    n.neighbor_gids.set_arena(arena);
    n.neighbor_degree.set_arena(arena);
    if (caches) {
      cache::ResponseIndexConfig ri_cfg = config_.params.ri;
      ri_cfg.eviction_seed = config_.seed ^ (0x9e3779b97f4a7c15ULL * (p + 1));
      ri_cfg.arena = arena;
      n.ri = std::make_unique<cache::ResponseIndex>(ri_cfg);
    }
    // Locaware's filters stay on the global heap: at 1200 bits a filter's
    // words take 152 bytes and the packed counters 600, which the arena's
    // power-of-two classes would round up to 256 bytes and 1 KiB.
    if (is_locaware) {
      n.keyword_filter = std::make_unique<bloom::CountingBloomFilter>(
          config_.params.bloom_bits, config_.params.bloom_hashes);
      n.advertised_filter = std::make_unique<bloom::BloomFilter>(
          config_.params.bloom_bits, config_.params.bloom_hashes);
    }
    if (uses_dht_) {
      n.dht = std::make_unique<dht::RoutingState>();
      n.dht->BindArena(arena);
    }
  }

  // 5. Protocol + initial link handshakes.
  protocol_ = MakeProtocol(config_.protocol, config_.params);
  for (PeerId p = 0; p < config_.num_peers; ++p) {
    for (PeerId nb : graph_->Neighbors(p)) {
      if (nb > p) protocol_->OnLinkUp(*this, p, nb);
    }
  }

  // 6. Churn. The whole on/off schedule is precomputed from stable
  // per-(peer, cycle) streams; transitions execute as owner-shard events and
  // all link rewiring travels as LinkDrop/LinkProbe/LinkAccept messages, so
  // churn never touches another shard's mutable state and composes with any
  // shard count.
  auto churn = overlay::ChurnModel::Create(config_.churn);
  if (!churn.ok()) return churn.status();
  churn_model_ = std::move(churn).ValueOrDie();
  if (config_.churn.enabled) {
    graph_->SetPartitionedOwnership(num_shards_, placement_.owner_map());
    churn_timeline_ = overlay::ChurnTimeline::Build(churn_model_, churn_seed_,
                                                    config_.num_peers, RunHorizon());
    // Seed the degree hints the initial handshakes would have announced; the
    // static graph is still consistent here, so these start exact.
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      NodeState& n = nodes_[p];
      for (PeerId nb : graph_->Neighbors(p)) {
        n.neighbor_degree[nb] = static_cast<uint32_t>(graph_->Degree(nb));
      }
    }
  }

  // 6b. Chord ring + initial routing tables. The ring order is an immutable
  // function of the peer count (the DHT's bootstrap directory, like the
  // churn timeline); the per-peer tables are derived against the time-0
  // online set — every peer, since churn transitions all start later (a
  // default-constructed timeline reports everyone online).
  if (uses_dht_) {
    dht_ring_ = dht::Ring::Build(config_.num_peers);
    const auto online_at_start = [&](PeerId c) {
      return !config_.churn.enabled || churn_timeline_.IsOnlineAt(c, 0);
    };
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      dht::ComputeTables(dht_ring_, p, config_.params.dht_successors,
                         config_.params.dht_fingers, online_at_start,
                         nodes_[p].dht.get());
    }
  }

  // 6c. Queue capacity for the in-flight working set, per shard: the
  // standing tick per peer of a run that ticks every interval, every churn
  // transition the timeline queues up front, plus one event per peer and
  // fixed headroom for the messages, deadlines, cleanups, armed ticks and
  // arrival in flight (the DHT's first publish round, its peak, holds ~0.6
  // per peer at 5000 peers). Reserved capacity stays address space until
  // events use it, while outgrowing it relocates the whole slab and can
  // strand the old one in the heap — so the budget errs large.
  {
    const size_t events_per_peer = ticks_every_interval_ ? 2 : 1;
    std::vector<size_t> budget(num_shards_, 1024);
    const sim::SimTime horizon = RunHorizon();
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      size_t& b = budget[shard_of(p)];
      b += events_per_peer;
      if (config_.churn.enabled) {
        const std::vector<sim::SimTime>& trans = churn_timeline_.transitions(p);
        b += std::upper_bound(trans.begin(), trans.end(), horizon) - trans.begin();
      }
    }
    for (sim::ShardId s = 0; s < num_shards_; ++s) sim_->ReserveEvents(s, budget[s]);
  }
  if (config_.churn.enabled) ScheduleChurnTimeline();

  // 7. Maintenance (index expiry; Locaware Bloom gossip; under churn, orphan
  // re-attachment — a lone probe lost to a mid-flight departure must not
  // strand a peer at degree 0 for its whole session; DHT stabilize and
  // republish). Peer p's ticks fall on its grid offset_p + k * interval, the
  // offsets staggered so 1000 nodes do not fire in the same microsecond.
  // Grid point 0 is keyed by the controller source, every later tick by the
  // node itself, keeping the tick order shard-count-invariant.
  //
  // A tick is queued only at a grid point where it has work
  // (ArmMaintenance), so every tick that runs runs at the time and against
  // the state a tick every interval would. Dropping the idle ones, offline
  // peers' included, only renumbers the peer's own later sequence numbers,
  // and among same-instant events of one source a tick commutes with the
  // rest: it reads and writes only its own peer's state, and what it sends
  // lands later. Static Flooding, Dicas and Dicas-Keys without TTL never
  // tick and draw no offsets.
  if (ticks_every_interval_ || is_locaware || config_.churn.enabled) {
    const sim::SimTime interval = config_.params.maintenance_interval;
    if (interval <= 0 || interval > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument(
          "params.maintenance_interval must be in (0, 4294.967295] s");
    }
    Rng stagger_rng = root_rng_.Split("maintenance");
    // The controller keys of grid point 0, in peer order.
    tick_seq_base_ = sim_->ReserveSequence(/*src=*/0, config_.num_peers);
    for (PeerId p = 0; p < config_.num_peers; ++p) {
      nodes_[p].maintenance_offset = static_cast<uint32_t>(
          stagger_rng.UniformInt(0, static_cast<uint64_t>(interval)));
      ArmMaintenance(p, /*cause=*/0);
    }
  }
  return Status::OK();
}

std::vector<sim::SimTime> Engine::BuildLookaheadMatrix(
    sim::SimTime scalar_lookahead) const {
  const uint32_t k = num_shards_;
  std::vector<sim::SimTime> matrix(static_cast<size_t>(k) * k, 0);
  for (sim::ShardId src = 0; src < k; ++src) {
    for (sim::ShardId dst = 0; dst < k; ++dst) {
      if (src == dst) continue;
      // The tightest claim the underlay makes about this shard pair: the min
      // of its pairwise bounds over every (src location, dst location)
      // combination. Empty digests (a shard with no peers) cannot send, so
      // any positive bound is valid; use the scalar.
      double bound_ms = std::numeric_limits<double>::infinity();
      for (size_t loc_a : placement_.ShardLocations(src)) {
        for (size_t loc_b : placement_.ShardLocations(dst)) {
          bound_ms = std::min(bound_ms, underlay_->PairRttLowerBoundMs(loc_a, loc_b));
        }
      }
      sim::SimTime la = std::isfinite(bound_ms) ? sim::FromMs(bound_ms / 2.0)
                                                : scalar_lookahead;
      // Never looser than the scalar floor; never beyond the query deadline,
      // so deadline-delayed cross-shard cleanup events always clear the
      // destination's window. Clamping down only narrows windows — still a
      // valid conservative bound.
      la = std::max(la, scalar_lookahead);
      la = std::min(la, config_.params.query_deadline);
      matrix[static_cast<size_t>(src) * k + dst] = la;
    }
  }
  return matrix;
}

NodeState& Engine::node(PeerId p) {
  LOCAWARE_CHECK_LT(p, nodes_.size());
  if (num_shards_ > 1) {
    // Shard-local ownership: inside a parallel run, mutable node state may
    // only be touched by the shard the peer lives on. Remote immutable facts
    // go through gid_of/loc_of instead.
    const sim::ShardId cur = sim::ShardedSimulator::current_shard();
    if (cur != sim::kNoShard) {
      LOCAWARE_CHECK_EQ(cur, shard_of(p)) << "cross-shard mutable node access";
    }
  }
  return nodes_[p];
}

const NodeState& Engine::node(PeerId p) const {
  LOCAWARE_CHECK_LT(p, nodes_.size());
  return nodes_[p];
}

LocId Engine::loc_of(PeerId p) const { return node(p).loc_id; }

GroupId Engine::gid_of(PeerId p) const { return node(p).gid; }

Rng Engine::DecisionRng(uint64_t domain, uint64_t a, uint64_t b) const {
  uint64_t x = decision_seed_;
  x = Mix64(x ^ (domain * 0x9e3779b97f4a7c15ULL));
  x = Mix64(x ^ a);
  x = Mix64(x ^ b);
  return Rng(x);
}

size_t Engine::pending_query_count() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.pending.size();
  return total;
}

size_t Engine::tracked_query_count() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.slot_of.size();
  return total;
}

size_t Engine::routed_query_count() const {
  size_t total = 0;
  for (const ShardState& shard : shards_) total += shard.routes.query_count();
  return total;
}

uint64_t Engine::orphan_reprobe_count() const {
  uint64_t total = 0;
  for (const ShardState& shard : shards_) total += shard.orphan_reprobes;
  return total;
}

sim::SimTime Engine::OneWayDelay(PeerId a, PeerId b) const {
  return sim::FromMs(underlay_->RttMs(a, b) / 2.0);
}

void Engine::ScheduleFromNode(PeerId src, PeerId dst, sim::SimTime delay,
                              sim::EventFn fn) {
  LOCAWARE_CHECK_GE(delay, 0);
  sim_->ScheduleAt(shard_of(dst), SourceOf(src), sim_->Now() + delay, std::move(fn));
}

void Engine::ArmMaintenance(PeerId p, sim::SourceId cause) {
  NodeState& n = node(p);
  if (n.maintenance_armed) return;
  const bool has_work = ticks_every_interval_ ||
                        (n.keyword_filter != nullptr && n.keyword_filter->unsynced()) ||
                        (config_.churn.enabled && graph_->Degree(p) == 0);
  if (!has_work) return;
  n.maintenance_armed = true;
  const auto tick = [this, p] {
    NodeState& self = node(p);
    self.maintenance_armed = false;
    if (!graph_->IsAlive(p)) return;  // the rejoin arms again
    // Ticking every interval takes grid point 0's successor key before the
    // work and every later one's after it.
    if (ticks_every_interval_ && Now() == self.maintenance_offset) {
      ArmMaintenance(p, SourceOf(p));
    }
    if (config_.protocol != ProtocolKind::kFlooding) {
      protocol_->OnMaintenanceTick(*this, p);
    }
    if (uses_dht_) DhtMaintenance(p);
    if (config_.churn.enabled && graph_->Degree(p) == 0) {
      ++shards_[shard_of(p)].orphan_reprobes;
      StartLinkProbes(p, 1);
    }
    ArmMaintenance(p, SourceOf(p));
  };
  // Grid point 0, or the latest grid point at or before now. If that is now
  // itself, the tick there sees the cause's change only if keyed after it.
  const sim::SimTime interval = config_.params.maintenance_interval;
  const sim::SimTime first = n.maintenance_offset;
  const sim::SimTime now = sim_->Now();
  sim::SimTime at = first;
  if (now >= first) {
    at += (now - first) / interval * interval;
    const bool keyed_after = at == first ? cause == 0 : cause < SourceOf(p);
    if (at < now || !keyed_after) at += interval;
  }
  if (at == first) {
    sim_->ScheduleReserved(shard_of(p), /*src=*/0, tick_seq_base_ + p, first, tick);
  } else {
    ScheduleFromNode(p, p, at - now, tick);
  }
}

void Engine::Run() {
  const auto& queries = workload_.queries();
  // Pre-register every query's metrics slot in every shard. Slots equal the
  // workload index everywhere, so per-shard counter contributions line up at
  // merge time; per-shard slot maps are erased by that query's cleanup event,
  // which is what stops post-deadline stragglers from charging traffic.
  for (sim::ShardId s = 0; s < num_shards_; ++s) {
    ShardState& shard = shards_[s];
    shard.slot_of.reserve(queries.size());
    for (const catalog::QueryEvent& ev : queries) {
      const size_t slot = shard.metrics.BeginQuery(ev.id, ev.requester, ev.submit_time);
      shard.metrics.Record(slot)->target_rank = workload_.RankOfFile(ev.target);
      shard.slot_of.try_emplace(ev.id, slot);
    }
  }

  arrival_seq_base_ = sim_->ReserveSequence(/*src=*/0, queries.size());
  for (sim::ShardId s = 0; s < num_shards_; ++s) ScheduleArrival(s, 0);
  sim_->Run(RunHorizon());

  // Fold the per-shard collectors into the run-level view. The merge moves
  // out of them, so no second copy of the records outlives it.
  std::vector<metrics::MetricsCollector*> parts;
  parts.reserve(shards_.size());
  for (ShardState& shard : shards_) parts.push_back(&shard.metrics);
  std::vector<uint32_t> origin_shard(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    origin_shard[i] = shard_of(queries[i].requester);
  }
  metrics_ = metrics::MetricsCollector::MergeShards(parts, origin_shard);

  // Scheduler counters ride along for reporting (bench counters, summary
  // tables) — they are shard/worker-dependent by nature and deliberately stay
  // out of the byte-compared metric JSON.
  const sim::SchedulerStats sched = sim_->stats();
  metrics_.SetSchedulerStats(sched.windows, sched.steals, sched.idle_ns);
}

size_t Engine::SlotOf(sim::ShardId shard, QueryId qid) const {
  const auto& slots = shards_[shard].slot_of;
  auto it = slots.find(qid);
  if (it == slots.end()) return SIZE_MAX;
  return it->second;
}

overlay::RecordVec Engine::AnswerFromFileStore(
    PeerId node_id, const overlay::QueryMessage& query) {
  // Message keywords are sorted by contract (SubmitQuery canonicalizes);
  // validate once here, then use the unchecked match in the per-file loop.
  LOCAWARE_CHECK(std::is_sorted(query.keywords.begin(), query.keywords.end()));
  overlay::RecordVec records;
  const NodeState& n = node(node_id);
  for (FileId f : n.file_store) {
    if (!catalog_.MatchesSorted(f, query.keywords)) continue;
    overlay::ResponseRecord record;
    record.file = f;
    record.providers.push_back(overlay::ProviderInfo{node_id, n.loc_id});
    record.from_index = false;
    records.push_back(std::move(record));
  }
  return records;
}

void Engine::ScheduleArrival(sim::ShardId s, size_t from) {
  const auto& queries = workload_.queries();
  while (from < queries.size() && shard_of(queries[from].requester) != s) ++from;
  if (from == queries.size()) return;
  sim_->ScheduleReserved(s, /*src=*/0, arrival_seq_base_ + from,
                         queries[from].submit_time, [this, s, from] {
                           ScheduleArrival(s, from + 1);
                           SubmitQuery(workload_.queries()[from]);
                         });
}

void Engine::SubmitQuery(const catalog::QueryEvent& ev) {
  ShardState& shard = shards_[shard_of(ev.requester)];
  const size_t slot = SlotOf(shard_of(ev.requester), ev.id);
  LOCAWARE_CHECK_NE(slot, SIZE_MAX) << "query submitted twice or never registered";

  if (!graph_->IsAlive(ev.requester)) {
    // Offline requester: the query is never issued. No messages exist, so
    // the local tracking entry can go immediately; remote shards hold only
    // the inert slot mapping, which the deferred cleanup sweeps so every
    // shard ends the run with zero tracked queries.
    CleanupShard(shard_of(ev.requester), ev.id);
    if (num_shards_ > 1) ScheduleCleanup(ev.requester, ev.id);
    return;
  }

  NodeState& origin = node(ev.requester);

  // Canonicalize the query's keyword ids once: sorted + deduplicated for
  // containment checks, canonical set hash for group routing.
  overlay::KeywordVec sorted_kws(ev.keywords.begin(), ev.keywords.end());
  std::sort(sorted_kws.begin(), sorted_kws.end());
  sorted_kws.erase(std::unique(sorted_kws.begin(), sorted_kws.end()),
                   sorted_kws.end());

  // A peer that already shares a matching file needs neither search nor
  // download. (sorted_kws was sorted two lines up: the unchecked match is
  // safe.)
  for (FileId f : origin.file_store) {
    if (catalog_.MatchesSorted(f, sorted_kws)) {
      metrics::QueryRecord* record = shard.metrics.Record(slot);
      record->success = true;
      record->source = metrics::AnswerSource::kLocalStore;
      record->provider_loc_match = true;
      CleanupShard(shard_of(ev.requester), ev.id);  // nothing in flight
      if (num_shards_ > 1) ScheduleCleanup(ev.requester, ev.id);
      return;
    }
  }

  overlay::QueryMessage query;
  query.qid = ev.id;
  query.origin = ev.requester;
  query.origin_loc = origin.loc_id;
  query.kw_set_fnv = catalog_.CanonicalSetFnv(sorted_kws);
  query.route_kw = ev.keywords.front();  // sampled order: a uniform pick
  query.keywords = sorted_kws;
  query.ttl = config_.params.ttl;
  query.hops = 0;

  PendingQuery pq;
  pq.slot = slot;
  pq.requester = ev.requester;
  pq.requester_loc = origin.loc_id;
  pq.keywords = std::move(sorted_kws);

  // The requester's own response index may already know providers.
  overlay::RecordVec local = protocol_->AnswerFromIndex(*this, ev.requester, query);
  if (!local.empty()) {
    for (overlay::ResponseRecord& record : local) {
      pq.offers.push_back(PendingQuery::Offer{std::move(record), ev.requester});
    }
    shard.pending.try_emplace(ev.id, std::move(pq));
    FinalizeQuery(ev.requester, ev.id);
    return;
  }

  // The origin keeps no reverse-path hop: a copy that comes back to it is a
  // duplicate by definition (DeliverQuery drops it).
  shard.pending.try_emplace(ev.id, std::move(pq));

  ForwardQuery(ev.requester, kInvalidPeer, query);
  // The protocol sees every query that left its origin unanswered — the DHT
  // protocol starts its recursive lookup here.
  protocol_->OnQuerySubmitted(*this, query);
  ScheduleFromNode(ev.requester, ev.requester, config_.params.query_deadline,
                   [this, origin_id = ev.requester, qid = ev.id] {
                     FinalizeQuery(origin_id, qid);
                   });
}

void Engine::ForwardQuery(PeerId node_id, PeerId from, const overlay::QueryMessage& msg) {
  if (msg.ttl == 0) return;
  const PeerVec targets = protocol_->ForwardTargets(*this, node_id, msg, from);
  if (targets.empty()) return;

  // One immutable pooled message shared by every forwarded copy: fan-out
  // costs O(targets) refcount bumps, and the node (with its keyword vector's
  // capacity) is recycled when the last delivery runs — zero allocations in
  // steady state, where make_shared paid one per hop.
  QueryPayloadRef shared = query_pool_.Acquire(msg);
  shared.mutable_msg()->ttl -= 1;
  shared.mutable_msg()->hops += 1;

  const size_t slot = SlotOf(shard_of(node_id), msg.qid);
  const size_t wire_bytes = EstimateSizeBytes(*shared, catalog_);
  for (PeerId target : targets) {
    if (slot != SIZE_MAX) {
      metrics::QueryRecord* record = CollectorAt(node_id).Record(slot);
      ++record->query_msgs;
      record->query_bytes += wire_bytes;
    }
    ScheduleFromNode(node_id, target, OneWayDelay(node_id, target),
                     [this, target, node_id, shared] {
                       DeliverQuery(target, node_id, shared);
                     });
  }
}

void Engine::DeliverQuery(PeerId to, PeerId from, const QueryPayloadRef& msg_ref) {
  if (!graph_->IsAlive(to)) return;  // lost on a dead peer
  const overlay::QueryMessage& msg = *msg_ref;
  if (msg.origin == to) return;  // back at its origin: a duplicate
  // A copy arriving after its shard's cleanup is dropped: admitting it would
  // re-create a hop table that no later event erases.
  const sim::ShardId shard = shard_of(to);
  if (SlotOf(shard, msg.qid) == SIZE_MAX) return;
  // The reverse-path hop doubles as the seen-query record: a second copy
  // finds it and is dropped as a duplicate.
  if (!shards_[shard].routes.Admit(msg.qid, to, from)) return;

  // Answer from the shared-file store first, then the response index
  // ("either in its file storage or in its response index", §4.2).
  overlay::RecordVec records = AnswerFromFileStore(to, msg);
  if (records.empty()) records = protocol_->AnswerFromIndex(*this, to, msg);

  const bool hit = !records.empty();
  if (hit) {
    overlay::ResponseMessage response;
    response.qid = msg.qid;
    response.responder = to;
    response.origin = msg.origin;
    response.origin_loc = msg.origin_loc;
    response.query_keywords = msg.keywords;
    response.records = std::move(records);
    SendResponse(to, from, response);
  }
  if (!hit || protocol_->ForwardAfterHit()) {
    ForwardQuery(to, from, msg);
  }
}

void Engine::SendResponse(PeerId sender, PeerId next_hop,
                          overlay::ResponseMessage msg) {
  const size_t slot = SlotOf(shard_of(sender), msg.qid);
  if (slot != SIZE_MAX) {
    metrics::QueryRecord* record = CollectorAt(sender).Record(slot);
    ++record->response_msgs;
    record->response_bytes += EstimateSizeBytes(msg, catalog_);
  }
  ScheduleFromNode(sender, next_hop, OneWayDelay(sender, next_hop),
                   [this, next_hop, sender, msg = std::move(msg)] {
                     DeliverResponse(next_hop, sender, msg);
                   });
}

void Engine::DeliverResponse(PeerId to, PeerId from, overlay::ResponseMessage msg) {
  if (!graph_->IsAlive(to)) return;  // response lost with the dead relay
  msg.hops += 1;

  // Every reverse-path peer (the requester included) may cache the passing
  // response, per the protocol's rule.
  protocol_->ObserveResponse(*this, to, msg);
  ArmMaintenance(to, SourceOf(from));

  if (to == msg.origin) {
    ShardState& shard = shards_[shard_of(to)];
    auto it = shard.pending.find(msg.qid);
    if (it == shard.pending.end()) return;  // arrived after the deadline
    PendingQuery& pq = it->second;
    metrics::QueryRecord* record = shard.metrics.Record(pq.slot);
    ++record->responses_received;
    if (record->first_response_at == 0) {
      record->first_response_at = sim_->Now();
      record->first_response_hops = msg.hops;
    }
    for (overlay::ResponseRecord& rec : msg.records) {
      pq.offers.push_back(PendingQuery::Offer{std::move(rec), msg.responder});
    }
    return;
  }

  const PeerId next = shards_[shard_of(to)].routes.NextHop(msg.qid, to);
  if (next == kInvalidPeer) return;  // path lost (churn or cleanup)
  SendResponse(to, next, msg);
}

void Engine::FinalizeQuery(PeerId origin, QueryId qid) {
  ShardState& shard = shards_[shard_of(origin)];
  auto it = shard.pending.find(qid);
  if (it == shard.pending.end()) return;
  PendingQuery pq = std::move(it->second);
  shard.pending.erase(it);

  metrics::QueryRecord* record = shard.metrics.Record(pq.slot);

  // Distinct candidate providers, preserving offer order (earliest response
  // first; freshest providers first within a record). The requester itself is
  // never a candidate. Dedup is a linear scan over the list itself —
  // candidate counts are a handful (bounded by providers-per-file times
  // responders), so scanning beats a side hash set and allocates nothing.
  SmallVector<Candidate, 8> candidates;
  bool filtered_dead = false;
  for (const PendingQuery::Offer& offer : pq.offers) {
    for (const overlay::ProviderInfo& p : offer.record.providers) {
      if (p.peer == pq.requester) continue;
      const bool seen = std::any_of(
          candidates.begin(), candidates.end(),
          [&](const Candidate& c) { return c.provider == p.peer; });
      if (seen) continue;
      Candidate cand;
      cand.provider = p.peer;
      cand.loc_id = p.loc_id;
      cand.from_index = offer.record.from_index;
      cand.responder = offer.responder;
      cand.file = offer.record.file;
      candidates.push_back(cand);
    }
  }
  record->providers_offered = static_cast<uint32_t>(candidates.size());

  // A provider that has gone offline cannot serve the download (stale index).
  // Liveness comes from the immutable churn timeline: the provider may live
  // on any shard, and its mutable state is unreadable from here. Filtered
  // in place (order preserved) — no second list.
  if (config_.churn.enabled) {
    const sim::SimTime now = sim_->Now();
    Candidate* keep = candidates.begin();
    for (Candidate& c : candidates) {
      if (churn_timeline_.IsOnlineAt(c.provider, now)) {
        *keep++ = std::move(c);
      } else {
        filtered_dead = true;
        shard.metrics.AddStaleProviderHit();
      }
    }
    candidates.erase(keep, candidates.end());
  }

  if (candidates.empty()) {
    if (filtered_dead) shard.metrics.AddStaleFailure();
    ScheduleCleanup(origin, qid);
    return;  // record stays a failure
  }

  const SelectionStrategy strategy =
      config_.params.selection.value_or(protocol_->DefaultSelection());
  // Selection randomness is keyed by the query id: order-independent, so the
  // chosen provider cannot drift with shard count or event interleaving.
  Rng selection_rng = DecisionRng(kDecisionSelection, qid);
  const SelectionOutcome outcome = SelectProvider(
      strategy, candidates, pq.requester, pq.requester_loc, *underlay_, &selection_rng);
  record->probe_msgs += outcome.probe_msgs;
  record->probe_bytes += outcome.probe_msgs * EstimateSizeBytes(overlay::ProbeMessage{});

  const Candidate& chosen = candidates[outcome.chosen];
  record->success = true;
  if (chosen.responder == pq.requester) {
    record->source = metrics::AnswerSource::kLocalIndex;
  } else if (chosen.from_index) {
    record->source = metrics::AnswerSource::kResponseIndex;
  } else {
    record->source = metrics::AnswerSource::kFileStore;
  }
  record->download_distance_ms = underlay_->RttMs(pq.requester, chosen.provider);
  record->provider_loc_match = (loc_of(chosen.provider) == pq.requester_loc);

  // Natural replication (§3.1): the requester downloads the file and shares
  // it from now on.
  if (chosen.file != kInvalidFile) {
    NodeState& requester = node(pq.requester);
    if (!requester.SharesFile(chosen.file)) requester.file_store.push_back(chosen.file);
  }

  ScheduleCleanup(origin, qid);
}

void Engine::ScheduleCleanup(PeerId origin, QueryId qid) {
  // One event per shard: each shard erases its own peers' tracking state, at
  // the same instant a sequential run would. The deadline dwarfs the
  // lookahead (Create checks), so the cross-shard sends are always legal.
  const sim::SimTime at = sim_->Now() + config_.params.query_deadline;
  for (sim::ShardId s = 0; s < num_shards_; ++s) {
    sim_->ScheduleAt(s, SourceOf(origin), at,
                     [this, s, qid] { CleanupShard(s, qid); });
  }
}

void Engine::CleanupShard(sim::ShardId shard_id, QueryId qid) {
  ShardState& shard = shards_[shard_id];
  shard.routes.Erase(qid);
  shard.slot_of.erase(qid);
}

void Engine::SendBloomUpdate(PeerId from, PeerId to,
                             overlay::BloomUpdateMessage update) {
  CollectorAt(from).AddBloomUpdate(1, EstimateSizeBytes(update));
  ScheduleFromNode(from, to, OneWayDelay(from, to),
                   [this, to, update = std::move(update)] {
                     if (!graph_->IsAlive(to)) return;
                     protocol_->OnBloomUpdate(*this, to, update);
                   });
}

void Engine::ChargeMaintenance(uint64_t messages, uint64_t bytes) {
  // Counters are additive and merged at Run() exit, so any shard's collector
  // works; outside event execution (setup handshakes) shard 0 takes it.
  const sim::ShardId cur = sim::ShardedSimulator::current_shard();
  shards_[cur == sim::kNoShard ? 0 : cur].metrics.AddBloomUpdate(messages, bytes);
}

sim::SimTime Engine::RunHorizon() const {
  const auto& queries = workload_.queries();
  if (queries.empty()) return 0;
  return queries.back().submit_time + 2 * config_.params.query_deadline +
         sim::kSecond;
}

void Engine::ScheduleChurnTimeline() {
  const sim::SimTime horizon = RunHorizon();
  for (PeerId p = 0; p < config_.num_peers; ++p) {
    const std::vector<sim::SimTime>& trans = churn_timeline_.transitions(p);
    for (size_t i = 0; i < trans.size(); ++i) {
      if (trans[i] > horizon) break;
      if (i % 2 == 0) {
        sim_->ScheduleAt(shard_of(p), /*src=*/0, trans[i],
                         [this, p] { HandleDeparture(p); });
      } else {
        sim_->ScheduleAt(shard_of(p), /*src=*/0, trans[i],
                         [this, p] { HandleRejoin(p); });
      }
    }
  }
}

void Engine::HandleDeparture(PeerId p) {
  LOCAWARE_CHECK(graph_->IsAlive(p)) << "departure of offline peer " << p;
  CollectorAt(p).AddChurnEvent();

  // Drop only our own half of each link; the neighbors dissolve theirs when
  // the LinkDrop lands (and tolerate forwarding to us in the meantime — the
  // delivery guards drop messages at dead peers).
  const uint32_t ending_epoch = graph_->session_epoch(p);
  const std::vector<PeerId> dropped = graph_->GoOffline(p);
  for (PeerId nb : dropped) {
    overlay::LinkDropMessage msg{p, ending_epoch};
    CollectorAt(p).AddRepairTraffic(1, EstimateSizeBytes(msg));
    ScheduleFromNode(p, nb, OneWayDelay(p, nb),
                     [this, nb, msg] { DeliverLinkDrop(nb, msg); });
  }

  // Session state dies with the session; the response index survives on disk
  // (its entries age out through entry_ttl instead).
  shards_[shard_of(p)].routes.DropPeer(p);
  NodeState& n = node(p);
  n.neighbor_filters.clear();
  n.neighbor_gids.clear();
  n.neighbor_degree.clear();
  // Routing tables and the owned keyword store die with the session;
  // republish after rejoin repopulates the ring. Lookups and stores in
  // flight carry this session's epoch, so every hop drops them.
  if (uses_dht_) n.dht->ResetForDeparture();
}

void Engine::HandleRejoin(PeerId p) {
  LOCAWARE_CHECK(!graph_->IsAlive(p)) << "rejoin of online peer " << p;
  CollectorAt(p).AddChurnEvent();
  graph_->GoOnline(p);  // fresh session epoch
  ArmMaintenance(p, /*cause=*/0);
  StartLinkProbes(p, config_.churn.rejoin_links);
  // Rebuild routing tables immediately so the fresh session can route; its
  // keyword store refills via the next maintenance tick's republish
  // (last_publish was reset to the never-published sentinel at departure).
  if (uses_dht_) DhtStabilize(p);
}

overlay::LinkAnnounce Engine::MakeAnnounce(PeerId p, bool with_filter) {
  NodeState& n = node(p);
  overlay::LinkAnnounce announce;
  announce.peer = p;
  announce.gid = n.gid;
  announce.epoch = graph_->session_epoch(p);
  announce.degree = static_cast<uint32_t>(graph_->Degree(p));
  if (with_filter && n.advertised_filter != nullptr) {
    announce.filter = *n.advertised_filter;
  }
  return announce;
}

void Engine::StartLinkProbes(PeerId p, size_t want) {
  NodeState& n = node(p);
  // One stream per probe round, keyed by (p, round). The round counter lives
  // on p and advances in p's event order, which is shard-count invariant.
  Rng rng = DecisionRng(kDecisionChurnLink, p, n.link_round++);
  const uint64_t num_peers = nodes_.size();
  std::vector<PeerId> picked;
  size_t attempts = 0;
  const size_t max_attempts = 100 * want + 100;
  while (picked.size() < want && attempts < max_attempts) {
    ++attempts;
    const PeerId cand = static_cast<PeerId>(rng.UniformInt(0, num_peers - 1));
    if (cand == p || graph_->HasHalfLink(p, cand)) continue;
    if (std::find(picked.begin(), picked.end(), cand) != picked.end()) continue;
    // The bootstrap directory only hands out currently-online peers. The
    // timeline is immutable, so this is a legal any-shard read — and the
    // candidate may still be gone by the time the probe lands.
    if (!churn_timeline_.IsOnlineAt(cand, sim_->Now())) continue;
    picked.push_back(cand);
  }
  for (PeerId cand : picked) {
    overlay::LinkProbeMessage msg{MakeAnnounce(p, /*with_filter=*/false)};
    CollectorAt(p).AddRepairTraffic(1, EstimateSizeBytes(msg));
    ScheduleFromNode(p, cand, OneWayDelay(p, cand),
                     [this, cand, msg = std::move(msg)] {
                       DeliverLinkProbe(cand, msg);
                     });
  }
}

void Engine::DeliverLinkDrop(PeerId to, const overlay::LinkDropMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // lost on a dead peer
  if (!graph_->RemoveHalfLink(to, msg.from, msg.epoch)) return;  // stale drop
  node(to).neighbor_degree.erase(msg.from);
  protocol_->OnPeerDeparted(*this, to, msg.from);
  ArmMaintenance(to, SourceOf(msg.from));
  // Orphans re-attach to keep the overlay usable.
  if (graph_->Degree(to) == 0) StartLinkProbes(to, 1);
}

void Engine::DeliverLinkProbe(PeerId to, const overlay::LinkProbeMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // probe lost on a dead peer
  const PeerId prober = msg.from.peer;
  // A prober whose session already ended (it left, or left and rejoined,
  // while the probe was in flight) will never act on our accept — its rejoin
  // starts a fresh epoch that rejects the echo. Model the handshake timing
  // out rather than install a half-link its other side can never match. (The
  // prober can still die while the accept is in flight — that ms-scale race
  // leaves a dangling half-edge here that degrades to wasted forwards until
  // our own departure or the prober's next probe refreshes it; real overlays
  // carry exactly this staleness.)
  if (!churn_timeline_.IsOnlineAt(prober, sim_->Now()) ||
      churn_timeline_.SessionEpochAt(prober, sim_->Now()) != msg.from.epoch) {
    return;
  }
  graph_->AddHalfLink(to, prober, msg.from.epoch);
  node(to).neighbor_degree[prober] = msg.from.degree;
  protocol_->OnNeighborUp(*this, to, msg.from);
  overlay::LinkAcceptMessage reply{MakeAnnounce(to, /*with_filter=*/true),
                                   msg.from.epoch};
  CollectorAt(to).AddRepairTraffic(1, EstimateSizeBytes(reply));
  ScheduleFromNode(to, prober, OneWayDelay(to, prober),
                   [this, prober, reply = std::move(reply)] {
                     DeliverLinkAccept(prober, reply);
                   });
}

void Engine::DeliverLinkAccept(PeerId to, const overlay::LinkAcceptMessage& msg) {
  if (!graph_->IsAlive(to)) return;  // we left again; accept arrives too late
  if (msg.prober_epoch != graph_->session_epoch(to)) return;  // stale session
  // The acceptor may have departed — or departed and rejoined under a fresh
  // epoch — while the accept was in flight (its LinkDrop could even arrive
  // first); skip acceptors whose accepting session is over.
  if (!churn_timeline_.IsOnlineAt(msg.from.peer, sim_->Now()) ||
      churn_timeline_.SessionEpochAt(msg.from.peer, sim_->Now()) !=
          msg.from.epoch) {
    return;
  }
  graph_->AddHalfLink(to, msg.from.peer, msg.from.epoch);
  node(to).neighbor_degree[msg.from.peer] = msg.from.degree;
  protocol_->OnNeighborUp(*this, to, msg.from);
}

size_t Engine::NeighborDegree(PeerId self, PeerId neighbor) {
  if (!config_.churn.enabled) return graph_->Degree(neighbor);
  const NodeState& n = node(self);
  auto it = n.neighbor_degree.find(neighbor);
  return it == n.neighbor_degree.end() ? 0 : static_cast<size_t>(it->second);
}

}  // namespace locaware::core

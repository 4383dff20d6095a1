// Maintenance on demand: outside DHT and index-TTL runs a peer's tick is
// queued only at the grid point where a tick every interval would first
// find work — a changed counting filter, or under churn a peer without
// links. The oracle is ticking every interval: an index TTL longer than the
// run expires nothing, yet keeps every online peer ticking every interval,
// so both runs must give byte-identical metric JSON. The static trace makes
// that hard: every query's one-hop responses land on its requester's grid
// point to the microsecond, so whether the tick there runs before or after
// the change decides when the change is gossiped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/config_io.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/experiment_config.h"
#include "metrics/report.h"

namespace locaware::core {
namespace {

/// Every one-way delay is 50 ms, so a response from the requester's
/// neighbor returns exactly one 100 ms round trip after submission. One
/// Dicas group makes every requester cache what comes back, and with a
/// tenth of the catalog on every peer most queries draw such a response.
constexpr sim::SimTime kRoundTrip = 100 * sim::kMillisecond;

ExperimentConfig GridWorld() {
  ExperimentConfig cfg = MakePaperConfig(ProtocolKind::kLocaware, /*num_queries=*/1000,
                                         /*seed=*/42);
  cfg.num_peers = 200;
  cfg.catalog.num_files = 300;
  cfg.catalog.keyword_pool_size = 900;
  cfg.files_per_peer = 30;
  cfg.params.num_groups = 1;
  cfg.use_uniform_underlay = true;
  cfg.underlay.min_rtt_ms = 100;
  cfg.underlay.max_rtt_ms = 100.0001;  // rounds to the same microsecond
  return cfg;
}

/// Writes the workload's queries as a text trace whose one-hop responses
/// land at fixed points of each requester's maintenance grid (from the same
/// "maintenance" draws the engine makes). Per peer, in units of half an
/// interval from grid point 0: -1, 0, then 4j and 4j + 1 for j >= 1. Each
/// pair is a change on a grid point, where the tick's order against the
/// change decides whether it is gossiped there, and a change half an
/// interval later, which the next tick gossips together with the first if
/// that one was held back — so a tick armed one grid point early or late,
/// or at grid point 0 under the wrong key, changes the Bloom update count.
/// The pairs are two intervals apart, so each starts with no tick armed.
std::string WriteGridTrace(const ExperimentConfig& cfg) {
  Rng root(cfg.seed);
  Rng catalog_rng = root.Split("catalog");
  auto catalog = std::move(catalog::FileCatalog::Generate(cfg.catalog, &catalog_rng))
                     .ValueOrDie();
  Rng workload_rng = root.Split("workload");
  auto workload = std::move(catalog::QueryWorkload::Generate(
                                cfg.workload, catalog, cfg.num_peers, &workload_rng))
                      .ValueOrDie();
  const sim::SimTime half = cfg.params.maintenance_interval / 2;
  Rng stagger_rng = root.Split("maintenance");
  std::vector<std::pair<sim::SimTime, PeerId>> landings;
  const size_t per_peer = workload.queries().size() / cfg.num_peers + 1;
  for (PeerId p = 0; p < cfg.num_peers; ++p) {
    const auto first_tick = static_cast<sim::SimTime>(stagger_rng.UniformInt(
        0, static_cast<uint64_t>(cfg.params.maintenance_interval)));
    std::vector<int64_t> ks = {-1, 0};
    for (int64_t j = 1; ks.size() < per_peer; ++j) {
      ks.push_back(4 * j);
      ks.push_back(4 * j + 1);
    }
    for (int64_t k : ks) {
      const sim::SimTime land = first_tick + k * half;
      if (land >= kRoundTrip) landings.push_back({land, p});
    }
  }
  std::sort(landings.begin(), landings.end());

  const std::string path = ::testing::TempDir() + "locaware_grid.trace";
  std::ofstream out(path);
  out << "# locaware-trace-v1: id requester target submit_us keywords...\n";
  const auto& queries = workload.queries();
  EXPECT_GE(landings.size(), queries.size());
  for (size_t i = 0; i < queries.size() && i < landings.size(); ++i) {
    const catalog::QueryEvent& q = queries[i];
    out << q.id << ' ' << landings[i].second << ' ' << q.target << ' '
        << landings[i].first - kRoundTrip;
    for (KeywordId kw : q.keywords) out << ' ' << catalog.keyword(kw);
    out << '\n';
  }
  EXPECT_TRUE(out.good());
  return path;
}

TEST(OnDemandMaintenanceTest, MatchesThePeriodicChainWhenResponsesLandOnGridPoints) {
  ExperimentConfig on_demand = GridWorld();
  on_demand.trace_path = WriteGridTrace(on_demand);
  ExperimentConfig periodic = on_demand;
  periodic.params.ri.entry_ttl = 1000 * sim::kHour;  // ticks, never expires

  auto reference = RunExperiment(periodic, /*num_buckets=*/5);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string want = ResultToJson(reference.ValueOrDie());
  ASSERT_GT(reference.ValueOrDie().summary.bloom_update_msgs, 0u);
  for (uint32_t shards : {1u, 2u, 4u}) {
    on_demand.scheduler.shards = shards;
    auto result = RunExperiment(on_demand, /*num_buckets=*/5);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(ResultToJson(result.ValueOrDie()), want) << "shards=" << shards;
  }
  std::remove(on_demand.trace_path.c_str());
}

/// A 300-peer world under heavy churn: five-minute sessions, one probe per
/// rejoin and a sparse overlay, so departures leave peers without links
/// and Locaware's LinkDrop invalidations change filters between responses.
/// Round trips of 1-3 s against a 1 s interval put grid points inside each
/// probe's round trip, so a peer that a LinkDrop or its rejoin left without
/// links is often still an orphan at its next tick, and at the one after.
ExperimentConfig ChurnWorld(ProtocolKind kind) {
  ExperimentConfig cfg = MakePaperConfig(kind, /*num_queries=*/1500, /*seed=*/42);
  cfg.num_peers = 300;
  cfg.catalog.num_files = 600;
  cfg.catalog.keyword_pool_size = 1800;
  cfg.workload.query_rate_per_peer_s = 0.01;
  cfg.avg_degree = 2;
  cfg.churn.enabled = true;
  cfg.churn.mean_session_s = 300;
  cfg.churn.mean_offline_s = 100;
  cfg.churn.rejoin_links = 1;
  cfg.use_uniform_underlay = true;
  cfg.underlay.min_rtt_ms = 1000;
  cfg.underlay.max_rtt_ms = 3000;
  cfg.params.maintenance_interval = sim::kSecond;
  return cfg;
}

/// What one run of a churn world shows: its metric JSON and the counters
/// that prove the run exercised the arming paths.
struct ChurnRun {
  std::string json;
  metrics::Summary summary;
  uint64_t orphan_reprobes = 0;
  uint64_t events = 0;
};

ChurnRun RunChurnWorld(const ExperimentConfig& cfg) {
  auto engine = std::move(Engine::Create(cfg)).ValueOrDie();
  engine->Run();
  ExperimentResult result;
  result.label = ProtocolKindName(cfg.protocol);
  result.summary = metrics::Summarize(engine->metrics());
  result.series = metrics::Bucketize(engine->metrics().records(), /*num_buckets=*/5);
  result.records = engine->metrics().records();
  return ChurnRun{ResultToJson(result), result.summary, engine->orphan_reprobe_count(),
                  engine->simulator().executed_count()};
}

/// Under churn without TTL a tick is armed only for work: a filter that a
/// response or a LinkDrop invalidation changed, or a peer a LinkDrop or its
/// rejoin left without links (re-armed while it stays so). An index TTL
/// longer than the run expires nothing but ticks every online peer every
/// interval, so both runs must give byte-identical metric JSON.
TEST(OnDemandMaintenanceTest, ChurnArmingMatchesTickingEveryInterval) {
  for (ProtocolKind kind : {ProtocolKind::kLocaware, ProtocolKind::kDicas}) {
    ExperimentConfig on_demand = ChurnWorld(kind);
    ExperimentConfig periodic = on_demand;
    periodic.params.ri.entry_ttl = 1000 * sim::kHour;  // ticks, never expires

    const ChurnRun reference = RunChurnWorld(periodic);
    ASSERT_GT(reference.summary.repair_msgs, 0u) << ProtocolKindName(kind);
    ASSERT_GT(reference.orphan_reprobes, 0u) << ProtocolKindName(kind);
    if (kind == ProtocolKind::kLocaware) {
      ASSERT_GT(reference.summary.bloom_update_msgs, 0u);
    }
    for (uint32_t shards : {1u, 2u, 4u}) {
      on_demand.scheduler.shards = shards;
      const ChurnRun run = RunChurnWorld(on_demand);
      EXPECT_EQ(run.json, reference.json)
          << ProtocolKindName(kind) << " shards=" << shards;
      EXPECT_EQ(run.orphan_reprobes, reference.orphan_reprobes)
          << ProtocolKindName(kind) << " shards=" << shards;
      EXPECT_LT(run.events, reference.events) << ProtocolKindName(kind);
    }
  }
}

/// The digests were taken when every peer of a churn, DHT or index-TTL run
/// kept a self-rescheduling tick every interval, offline or not. Arming
/// ticks for work alone must reproduce those runs exactly, at every shard
/// count, and the DHT world must execute fewer events than it did then:
/// its offline peers no longer tick.
TEST(OnDemandMaintenanceTest, ChurnWorldsMetricJsonIsPinned) {
  struct World {
    ProtocolKind kind;
    sim::SimTime entry_ttl;
    uint64_t digest;
  };
  const World worlds[] = {
      {ProtocolKind::kLocaware, 0, 0x646fd957b4a33fcbULL},
      {ProtocolKind::kDicas, 10 * sim::kMinute, 0x06ad7be416a8bf52ULL},
      {ProtocolKind::kDht, 0, 0x7065333e4002ff3eULL},
  };
  // The DHT world's executed events at 1, 2 and 4 shards (each query's
  // cleanup is one event per shard) when offline peers still ticked.
  const uint64_t dht_events_ticking_offline[] = {194529, 196371, 199371};
  for (const World& w : worlds) {
    ExperimentConfig cfg = ChurnWorld(w.kind);
    cfg.params.ri.entry_ttl = w.entry_ttl;
    for (uint32_t i = 0; i < 3; ++i) {
      const uint32_t shards = 1u << i;
      cfg.scheduler.shards = shards;
      const ChurnRun run = RunChurnWorld(cfg);
      const uint64_t digest = Fnv1a64(run.json);
      EXPECT_EQ(digest, w.digest) << ProtocolKindName(w.kind) << " shards=" << shards
                                  << " digest 0x" << std::hex << digest;
      if (w.kind == ProtocolKind::kDht) {
        EXPECT_LT(run.events, dht_events_ticking_offline[i]) << "shards=" << shards;
      }
    }
  }
}

/// Every run that can tick draws grid offsets, and an interval outside
/// (0, 4294.967295] s cannot make a grid: Create must reject it rather than
/// queue ticks at Now() + 0 forever or in the past.
TEST(OnDemandMaintenanceTest, CreateRejectsABadIntervalInEveryRunThatTicks) {
  ExperimentConfig churn_dicas = ChurnWorld(ProtocolKind::kDicas);
  ExperimentConfig dht = MakePaperConfig(ProtocolKind::kDht, /*num_queries=*/50,
                                         /*seed=*/42);
  ExperimentConfig ttl_dicas = MakePaperConfig(ProtocolKind::kDicas, /*num_queries=*/50,
                                               /*seed=*/42);
  ttl_dicas.params.ri.entry_ttl = 10 * sim::kMinute;
  for (ExperimentConfig* cfg : {&churn_dicas, &dht, &ttl_dicas}) {
    for (sim::SimTime interval : {sim::SimTime{0}, -sim::kSecond}) {
      cfg->params.maintenance_interval = interval;
      const auto created = Engine::Create(*cfg);
      ASSERT_FALSE(created.ok()) << ProtocolKindName(cfg->protocol) << " at "
                                 << interval << " us";
      EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
          << created.status().ToString();
    }
  }
}

}  // namespace
}  // namespace locaware::core

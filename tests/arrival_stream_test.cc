// Streamed query arrivals. Engine::Run keeps one submission queued per shard
// and each submission queues its shard's next. These tests pin what that
// must not change — the (submit_time, source, sequence) order of
// submissions, ties included, at every shard count — and what it must: the
// event queues hold in-flight work, not the whole trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/config_io.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/experiment_config.h"

namespace locaware::core {
namespace {

/// A 200-peer Locaware world that runs in well under a second.
ExperimentConfig TieWorld() {
  ExperimentConfig cfg = MakePaperConfig(ProtocolKind::kLocaware, /*num_queries=*/400,
                                         /*seed=*/42);
  cfg.num_peers = 200;
  cfg.underlay.num_routers = 50;
  cfg.catalog.num_files = 500;
  cfg.catalog.keyword_pool_size = 1500;
  cfg.workload.query_rate_per_peer_s = 0.01;
  return cfg;
}

/// Writes a text trace whose submissions tie on purpose and returns its
/// path. Queries come in groups of four sharing one submit_time, issued by
/// four consecutive peers: different shards under modulo placement, with
/// same-shard pairs at 2 shards. Every fifth group moves to the soonest
/// maintenance tick of its first peer, so submissions also share instants
/// with ticks — the first such group with a peer's first tick (keyed by the
/// controller, like arrivals), later ones with node-keyed repeat ticks.
std::string WriteTieHeavyTrace(const ExperimentConfig& cfg) {
  // Catalog and stream exactly as Engine::Setup builds them (same
  // name-keyed splits), so the trace's keywords resolve to real files.
  Rng root(cfg.seed);
  Rng catalog_rng = root.Split("catalog");
  auto catalog = std::move(catalog::FileCatalog::Generate(cfg.catalog, &catalog_rng))
                     .ValueOrDie();
  Rng workload_rng = root.Split("workload");
  auto workload = std::move(catalog::QueryWorkload::Generate(
                                cfg.workload, catalog, cfg.num_peers, &workload_rng))
                      .ValueOrDie();
  // The engine staggers each peer's first tick by one draw from the
  // "maintenance" split and repeats it every maintenance_interval.
  const sim::SimTime interval = cfg.params.maintenance_interval;
  Rng stagger_rng = root.Split("maintenance");
  std::vector<sim::SimTime> first_tick(cfg.num_peers);
  for (sim::SimTime& t : first_tick) {
    t = static_cast<sim::SimTime>(
        stagger_rng.UniformInt(0, static_cast<uint64_t>(interval)));
  }
  const auto tick_at_or_after = [&](PeerId p, sim::SimTime t) {
    if (t <= first_tick[p]) return first_tick[p];
    return first_tick[p] + (t - first_tick[p] + interval - 1) / interval * interval;
  };

  const std::string path = ::testing::TempDir() + "locaware_tie_heavy.trace";
  std::ofstream out(path);
  out << "# locaware-trace-v1: id requester target submit_us keywords...\n";
  const auto& queries = workload.queries();
  sim::SimTime t = 0;
  for (size_t g = 0; g * 4 < queries.size(); ++g) {
    PeerId first = queries[g * 4].requester;
    t = std::max(t, queries[g * 4].submit_time);
    if (g % 5 == 0) {
      sim::SimTime soonest = tick_at_or_after(0, t);
      first = 0;
      for (PeerId p = 1; p < cfg.num_peers; ++p) {
        if (tick_at_or_after(p, t) < soonest) {
          soonest = tick_at_or_after(p, t);
          first = p;
        }
      }
      t = soonest;
    }
    for (size_t i = g * 4; i < std::min(queries.size(), g * 4 + 4); ++i) {
      const catalog::QueryEvent& q = queries[i];
      out << q.id << ' ' << (first + i - g * 4) % cfg.num_peers << ' ' << q.target
          << ' ' << t;
      for (KeywordId kw : q.keywords) out << ' ' << catalog.keyword(kw);
      out << '\n';
    }
  }
  EXPECT_TRUE(out.good());
  return path;
}

/// The digest was taken before arrivals streamed, when Run queued every
/// submission up front. Streaming must reproduce that order exactly, ties
/// between shards and with maintenance ticks included, at every shard count.
TEST(ArrivalStreamTest, TieHeavyTraceMetricJsonIsPinned) {
  ExperimentConfig cfg = TieWorld();
  cfg.trace_path = WriteTieHeavyTrace(cfg);
  for (uint32_t shards : {1u, 2u, 4u}) {
    cfg.scheduler.shards = shards;
    auto result = RunExperiment(cfg, /*num_buckets=*/5);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const uint64_t digest = Fnv1a64(ResultToJson(result.ValueOrDie()));
    EXPECT_EQ(digest, 0x7b72772854ab37ceULL)
        << "shards=" << shards << " digest 0x" << std::hex << digest;
  }
  std::remove(cfg.trace_path.c_str());
}

/// Most events queued at once over a 1000-peer Dicas run. Two knobs keep
/// the 2-shard runs short without changing what is measured: a uniform
/// underlay with a 100 ms RTT floor gives a 50 ms lookahead (few, deep
/// windows), and ten times the paper's query rate packs 20k queries into
/// 2400 simulated seconds.
size_t QueuePeak(uint64_t num_queries, uint32_t shards) {
  ExperimentConfig cfg = MakePaperConfig(ProtocolKind::kDicas, num_queries, /*seed=*/42);
  cfg.scheduler.shards = shards;
  cfg.use_uniform_underlay = true;
  cfg.underlay.min_rtt_ms = 100;
  cfg.workload.query_rate_per_peer_s = 0.0083;
  auto engine = std::move(Engine::Create(cfg)).ValueOrDie();
  engine->Run();
  return engine->simulator().queued_high_water();
}

/// The queues hold the messages, deadlines and cleanups of the queries in
/// flight and one arrival per shard — none of which grows with the trace.
/// Ten times the queries over ten times the simulated span leaves the peak
/// where it was (queueing every arrival up front put it above the query
/// count).
TEST(ArrivalStreamTest, QueuePeakDoesNotGrowWithTraceLength) {
  for (uint32_t shards : {1u, 2u}) {
    const size_t short_peak = QueuePeak(2000, shards);
    const size_t long_peak = QueuePeak(20000, shards);
    const size_t spread = long_peak > short_peak ? long_peak - short_peak
                                                 : short_peak - long_peak;
    EXPECT_LT(spread * 10, short_peak)
        << "shards=" << shards << " peak " << short_peak << " at 2k queries, "
        << long_peak << " at 20k";
  }
}

/// Runs without DHT or index TTL queue no standing maintenance tick per
/// peer: static Dicas never ticks, Locaware ticks only to gossip a changed
/// filter, and under churn a peer ticks only for that or while it has no
/// link. The queues hold in-flight work (and, under churn, the timeline's
/// transitions) — far below one event per peer. A run with an index TTL
/// keeps a tick per online peer, and the same measure shows it.
TEST(ArrivalStreamTest, StaticRunsQueueNoStandingTicks) {
  for (ProtocolKind kind : {ProtocolKind::kDicas, ProtocolKind::kLocaware}) {
    const ExperimentConfig cfg = MakePaperConfig(kind, /*num_queries=*/2000, /*seed=*/42);
    auto engine = std::move(Engine::Create(cfg)).ValueOrDie();
    engine->Run();
    const size_t peak = engine->simulator().queued_high_water();
    EXPECT_LT(peak * 4, cfg.num_peers) << ProtocolKindName(kind) << " peak " << peak;
    if (kind == ProtocolKind::kLocaware) {
      EXPECT_GT(engine->metrics().bloom_update_msgs(), 0u) << "no tick gossiped";
    }
  }
  for (ProtocolKind kind : {ProtocolKind::kDicas, ProtocolKind::kLocaware}) {
    ExperimentConfig churn = MakePaperConfig(kind, /*num_queries=*/200, /*seed=*/42);
    churn.churn.enabled = true;
    auto engine = std::move(Engine::Create(churn)).ValueOrDie();
    engine->Run();
    const size_t peak = engine->simulator().queued_high_water();
    EXPECT_LT(peak * 4, churn.num_peers)
        << "churn " << ProtocolKindName(kind) << " peak " << peak;
  }
  ExperimentConfig ttl = MakePaperConfig(ProtocolKind::kDicas, /*num_queries=*/200,
                                         /*seed=*/42);
  ttl.churn.enabled = true;
  ttl.params.ri.entry_ttl = 10 * sim::kMinute;
  auto engine = std::move(Engine::Create(ttl)).ValueOrDie();
  engine->Run();
  EXPECT_GT(engine->simulator().queued_high_water(), ttl.num_peers);
}

}  // namespace
}  // namespace locaware::core

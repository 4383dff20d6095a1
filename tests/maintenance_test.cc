// Maintenance on demand: a static Locaware run without an index TTL queues a
// peer's tick only at the grid point where the periodic chain's tick would
// first see its counting filter changed. The oracle is the periodic chain
// itself: an index TTL longer than the run expires nothing, yet keeps every
// peer ticking every interval, so both runs must give byte-identical metric
// JSON. The trace makes that hard: every query's one-hop responses land on
// its requester's grid point to the microsecond, so whether the tick there
// runs before or after the change decides when the change is gossiped.
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
#include "common/rng.h"
#include "core/config_io.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/experiment_config.h"

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

}  // namespace
}  // namespace locaware::core

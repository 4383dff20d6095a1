// Tests of the benchmark's own logic: the statistics it reports with, the
// failed-operation accounting, the setup-replay equality checks, and the
// stability of the metric-JSON digest its output checks compare.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <regex>
#include <sstream>

#include "core/config_io.h"
#include "core/experiment.h"
#include "perfbench.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace core = locaware::core;

// A small Locaware world every engine-level test can afford.
ExperimentConfig SmallConfig(uint64_t seed = 42) {
  ExperimentConfig cfg = core::MakePaperConfig(core::ProtocolKind::kLocaware,
                                               /*num_queries=*/300, seed);
  cfg.num_peers = 300;
  cfg.underlay.num_routers = 60;
  cfg.catalog.num_files = 600;
  cfg.catalog.keyword_pool_size = 1800;
  return cfg;
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// --- quartiles ---------------------------------------------------------------

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(values, n=4) and
  // statistics.median(values).
  Quartiles q = ComputeQuartiles(OneTo(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);

  q = ComputeQuartiles({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);

  q = ComputeQuartiles({1.0, 2.0});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);
}

TEST(QuartilesTest, DegenerateInputs) {
  Quartiles q = ComputeQuartiles({7.0});
  EXPECT_EQ(q.q1, 7.0);
  EXPECT_EQ(q.median, 7.0);
  EXPECT_EQ(q.q3, 7.0);
  q = ComputeQuartiles({});
  EXPECT_EQ(q.median, 0.0);
}

// --- tail percentile rule ------------------------------------------------------

TEST(SupportedPercentileTest, ReportsP99WhenTenSamplesLieBeyond) {
  const TailPercentile t = SupportedPercentile(OneTo(1000), 99.0);
  EXPECT_TRUE(t.supported);
  EXPECT_EQ(t.reported_p, 99.0);
  EXPECT_EQ(t.value, 990.0);  // nearest rank ceil(0.99 * 1000)
  EXPECT_EQ(t.samples, 1000u);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(SupportedPercentileTest, LowersToTheHighestSupportedPercentile) {
  // 999 samples: p99's nearest rank is 990, leaving 9 beyond it.
  const TailPercentile t = SupportedPercentile(OneTo(999), 99.0);
  EXPECT_FALSE(t.supported);
  EXPECT_EQ(t.value, 989.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_NEAR(t.reported_p, 100.0 * 989.0 / 999.0, 1e-12);
  EXPECT_LT(t.reported_p, 99.0);
}

TEST(SupportedPercentileTest, UnsortedInputAndCustomMinimum) {
  std::vector<double> v = OneTo(100);
  std::reverse(v.begin(), v.end());
  const TailPercentile t = SupportedPercentile(v, 90.0, /*min_beyond=*/10);
  EXPECT_TRUE(t.supported);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(SupportedPercentileTest, TooFewSamplesFallsBackToTheFlaggedMedian) {
  const TailPercentile t = SupportedPercentile(OneTo(10), 99.0);
  EXPECT_FALSE(t.supported);
  EXPECT_EQ(t.reported_p, 50.0);
  EXPECT_EQ(t.value, 5.0);
  EXPECT_EQ(SupportedPercentile({}, 99.0).samples, 0u);
}

// --- failed-operation accounting ------------------------------------------------

TEST(VerdictTest, DigestMismatchFailsTheRun) {
  Verdict verdict(/*queries_per_run=*/10);
  verdict.AddRun("run 1", OutputCheck{}, "{\"a\": 1}");
  verdict.AddRun("run 2", OutputCheck{}, "{\"a\": 1}");
  EXPECT_TRUE(verdict.correct());
  EXPECT_EQ(verdict.failed(), 0u);

  verdict.AddRun("run 3", OutputCheck{}, "{\"a\": 2}");
  EXPECT_FALSE(verdict.correct());
  EXPECT_EQ(verdict.attempted(), 30u);
  EXPECT_EQ(verdict.failed(), 10u);
  ASSERT_EQ(verdict.problems().size(), 1u);
  EXPECT_NE(verdict.problems()[0].find("run 3"), std::string::npos);
}

TEST(VerdictTest, FailedCheckExtraProblemOrErrorFailsTheRun) {
  Verdict verdict(/*queries_per_run=*/10);
  OutputCheck bad;
  bad.problems.push_back("pending_query_count 1 after Run");
  verdict.AddRun("run 1", bad, "{}");
  verdict.AddRun("run 2", OutputCheck{}, "{}", {"overlay link count differs"});
  verdict.AddRun("run 3", OutputCheck{}, "{}");
  verdict.AddError("run 4", Status::InvalidArgument("boom"));
  EXPECT_FALSE(verdict.correct());
  EXPECT_EQ(verdict.attempted(), 40u);
  EXPECT_EQ(verdict.failed(), 30u);
  EXPECT_EQ(verdict.problems().size(), 3u);
}

TEST(VerdictTest, NothingAttemptedIsNotCorrect) {
  EXPECT_FALSE(Verdict(10).correct());
}

// --- workloads -------------------------------------------------------------------

TEST(WorkloadTest, EveryNamedWorkloadHasAConfig) {
  for (const std::string& name : WorkloadNames()) {
    auto cfg = MakeWorkloadConfig(name);
    ASSERT_TRUE(cfg.ok()) << name;
    EXPECT_EQ(cfg.ValueOrDie().seed, kWorldSeed);
    EXPECT_LE(cfg.ValueOrDie().scheduler.shards, 2u) << "at most two worker threads";
  }
  EXPECT_FALSE(MakeWorkloadConfig("nope").ok());
}

TEST(WorkloadTest, SeededQueriesChangeOnlyTheQueryStream) {
  const std::string path = "perfbench_seeded.trace.bin";
  // At the world's own seed the trace route reproduces the generated run.
  ExperimentConfig same = SmallConfig();
  ASSERT_TRUE(UseSeededQueries(&same, same.seed, path).ok());
  EXPECT_EQ(same.trace_path, path);
  const RunSample via_trace = std::move(RunOnce(same)).ValueOrDie();
  const RunSample generated = std::move(RunOnce(SmallConfig())).ValueOrDie();
  EXPECT_TRUE(via_trace.check.ok());
  EXPECT_EQ(via_trace.metric_json, generated.metric_json);

  // Another workload seed: same world, other queries, other results.
  ExperimentConfig other = SmallConfig();
  ASSERT_TRUE(UseSeededQueries(&other, 7, path).ok());
  auto engine = std::move(Engine::Create(other)).ValueOrDie();
  auto world = std::move(Engine::Create(SmallConfig())).ValueOrDie();
  EXPECT_EQ(engine->underlay().MinPairRttMs(), world->underlay().MinPairRttMs());
  EXPECT_EQ(engine->graph().num_links(), world->graph().num_links());
  EXPECT_NE(engine->workload().queries()[0].submit_time,
            world->workload().queries()[0].submit_time);
  engine->Run();
  EXPECT_TRUE(CheckRunOutput(*engine).ok());
  EXPECT_NE(MetricJson(*engine), generated.metric_json);
  std::remove(path.c_str());
}

// The metric list of one BENCHMARK.json section as "name unit" strings.
std::vector<std::string> ListedMetrics(const std::string& json, const std::string& section) {
  const size_t begin = json.find("\"" + section + "\"");
  const size_t end = json.find(']', begin);
  const std::string body = json.substr(begin, end - begin);
  const std::regex entry(R"re("name": "([^"]+)", "unit": "([^"]+)")re");
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.push_back((*it)[1].str() + " " + (*it)[2].str());
  }
  return out;
}

std::vector<std::string> Reported(const std::vector<MetricSpec>& specs) {
  std::vector<std::string> out;
  for (const MetricSpec& spec : specs) out.push_back(spec.name + " " + spec.unit);
  return out;
}

TEST(BenchmarkJsonTest, ListsExactlyTheMetricsAndWorkloadsReported) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_EQ(ListedMetrics(json, "end_to_end"), Reported(EndToEndMetrics()));
  EXPECT_EQ(ListedMetrics(json, "per_layer"), Reported(PerLayerMetrics()));
  for (const std::string& name : WorkloadNames()) {
    EXPECT_NE(json.find("{\"name\": \"" + name + "\", \"why\""), std::string::npos) << name;
  }
}

// --- setup replay ------------------------------------------------------------------

TEST(SetupReplayTest, ReplayEqualsWhatCreateBuilt) {
  for (uint32_t shards : {1u, 2u}) {
    ExperimentConfig cfg = SmallConfig();
    cfg.scheduler.shards = shards;
    auto engine = std::move(Engine::Create(cfg)).ValueOrDie();
    auto replay = ReplaySetup(engine->config());
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(CompareReplay(replay.ValueOrDie(), *engine).empty()) << "shards " << shards;
    EXPECT_EQ(replay.ValueOrDie().shard_peer_counts.size(), shards);
    EXPECT_GT(replay.ValueOrDie().timed_s(), 0.0);
  }
}

TEST(SetupReplayTest, ReplayLoadsTheTraceTheEngineLoaded) {
  const std::string path = "perfbench_replay.trace.bin";
  ExperimentConfig cfg = SmallConfig();
  ASSERT_TRUE(UseSeededQueries(&cfg, 7, path).ok());
  auto engine = std::move(Engine::Create(cfg)).ValueOrDie();
  auto replay = ReplaySetup(engine->config());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(CompareReplay(replay.ValueOrDie(), *engine).empty());
  std::remove(path.c_str());
}

TEST(SetupReplayTest, ReplayOfAnotherSeedIsReportedAsDifferent) {
  auto engine = std::move(Engine::Create(SmallConfig(42))).ValueOrDie();
  ExperimentConfig other = engine->config();
  other.seed = 43;
  auto replay = ReplaySetup(other);
  ASSERT_TRUE(replay.ok());
  const std::vector<std::string> diffs = CompareReplay(replay.ValueOrDie(), *engine);
  EXPECT_FALSE(diffs.empty());
  const bool names_underlay =
      std::any_of(diffs.begin(), diffs.end(), [](const std::string& d) {
        return d.find("MinPairRttMs") != std::string::npos ||
               d.find("locIds") != std::string::npos;
      });
  EXPECT_TRUE(names_underlay);
}

TEST(SetupReplayTest, UnsupportedSetupsAreRejected) {
  ExperimentConfig cfg = SmallConfig();
  cfg.use_uniform_underlay = true;
  EXPECT_FALSE(ReplaySetup(cfg).ok());
  cfg = SmallConfig();
  cfg.scheduler.placement = locaware::sim::PlacementStrategy::kClustered;
  EXPECT_FALSE(ReplaySetup(cfg).ok());
}

// --- output checks and digest stability ----------------------------------------------

TEST(OutputCheckTest, AnUnrunEngineFailsItsChecks) {
  auto engine = std::move(Engine::Create(SmallConfig())).ValueOrDie();
  EXPECT_FALSE(CheckRunOutput(*engine).ok());
}

TEST(DigestTest, StableAcrossRunsAndShardCountsAndSensitiveToSeed) {
  const RunSample a = std::move(RunOnce(SmallConfig())).ValueOrDie();
  const RunSample b = std::move(RunOnce(SmallConfig())).ValueOrDie();
  EXPECT_TRUE(a.check.ok());
  EXPECT_EQ(a.metric_json, b.metric_json);
  EXPECT_EQ(DigestHex(a.metric_json), DigestHex(b.metric_json));
  EXPECT_EQ(DigestHex(a.metric_json).size(), 16u);

  ExperimentConfig sharded = SmallConfig();
  sharded.scheduler.shards = 2;
  const RunSample c = std::move(RunOnce(sharded)).ValueOrDie();
  EXPECT_TRUE(c.check.ok());
  EXPECT_EQ(a.metric_json, c.metric_json);

  const RunSample d = std::move(RunOnce(SmallConfig(43))).ValueOrDie();
  EXPECT_NE(DigestHex(a.metric_json), DigestHex(d.metric_json));
}

TEST(DigestTest, MetricJsonIsRunExperimentsJson) {
  auto engine = std::move(Engine::Create(SmallConfig())).ValueOrDie();
  engine->Run();
  auto result = std::move(core::RunExperiment(SmallConfig())).ValueOrDie();
  EXPECT_EQ(MetricJson(*engine), core::ResultToJson(result));
}

TEST(TracedRunTest, ReportsEveryLayerAndMatchesTheUntracedRun) {
  const RunSample plain = std::move(RunOnce(SmallConfig())).ValueOrDie();
  const TracedRun traced = std::move(RunTraced(SmallConfig(), nullptr)).ValueOrDie();
  EXPECT_TRUE(traced.replay_mismatches.empty());
  EXPECT_TRUE(traced.sample.check.ok());
  EXPECT_EQ(traced.sample.metric_json, plain.metric_json);
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (spec.name == "trace.overhead_s") continue;  // added by the caller
    EXPECT_TRUE(traced.layers.count(spec.name)) << spec.name;
  }
  EXPECT_EQ(traced.layers.at("sim.events"), static_cast<double>(plain.events));
  EXPECT_GT(traced.layers.at("cache.lookups"), 0.0);
  EXPECT_GT(traced.layers.at("bloom.fill_ratio"), 0.0);
  EXPECT_EQ(traced.layers.at("dht.lookups"), 0.0);
  EXPECT_EQ(traced.layers.at("common.allocs_per_event"), 0.0);  // no counter given
}

}  // namespace
}  // namespace perfbench

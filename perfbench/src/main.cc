// locaware_perfbench — runs one named workload of the repository benchmark.
//
//   locaware_perfbench --workload paper_locaware --seed 42 --seconds 15 --trace 0
//
// Each workload is a fixed world (kWorldSeed); --seed generates its query
// stream, written to a binary trace in --work-dir for the engine to load and
// removed at exit.
//
// --trace 0 repeats untraced Create -> Run until --seconds have passed (at
// least three runs) and reports the end-to-end metrics: host times as the
// median over runs (Run's wall clock and queries/s in the report only), the
// paper's modelled metrics exactly. --trace 1 makes
// three untraced runs, then traced runs until --seconds have passed (at
// least two), and reports the per-layer metrics. Every run checks its own
// output; scale_sharded also reruns once at shards=1, whose metric JSON must
// equal the sharded runs'. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check held, 1 when one failed, 2 on bad usage.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "perfbench.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 15.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double Elapsed(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintQuartiles(const char* name, const char* unit, const std::vector<double>& v) {
  const Quartiles q = ComputeQuartiles(v);
  std::printf("  %-28s median %.6g %s  q1 %.6g  q3 %.6g  (n=%zu runs)\n", name, q.median,
              unit, q.q1, q.q3, v.size());
}

void PrintResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              verdict.correct() ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted()),
              static_cast<unsigned long long>(verdict.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: locaware_perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--commit SHA] [--work-dir DIR]\nworkloads:");
    for (const std::string& name : WorkloadNames()) std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  auto made = MakeWorkloadConfig(args.workload);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  ExperimentConfig cfg = std::move(made).ValueOrDie();
  const std::string trace_path = args.work_dir + "/perfbench-" + args.workload + "-" +
                                 std::to_string(args.seed) + ".trace.bin";
  if (Status st = UseSeededQueries(&cfg, args.seed, trace_path); !st.ok()) {
    std::fprintf(stderr, "cannot write the query trace: %s\n", st.ToString().c_str());
    return 1;
  }

  const HostContext host = ReadHostContext();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# host: hostname=%s nproc=%u load1_before=%.2f build=%s compiler=\"%s\" "
              "commit=%s\n",
              host.hostname.c_str(), host.nproc, host.load1, host.build_type.c_str(),
              host.compiler.c_str(), args.commit.c_str());
  std::printf("# config: world_seed=%llu protocol=%s peers=%zu routers=%zu files=%zu "
              "queries=%llu rate=%g q/s/peer shards=%u churn=%d\n",
              static_cast<unsigned long long>(cfg.seed),
              locaware::core::ProtocolKindName(cfg.protocol), cfg.num_peers,
              cfg.underlay.num_routers, cfg.catalog.num_files,
              static_cast<unsigned long long>(cfg.workload.num_queries),
              cfg.workload.query_rate_per_peer_s, cfg.scheduler.shards,
              cfg.churn.enabled ? 1 : 0);
  std::fflush(stdout);

  Verdict verdict(cfg.workload.num_queries);
  const auto start = Clock::now();

  // Untraced runs: the end-to-end measurement.
  std::vector<double> setup_s, run_s, queries_per_s, wall_s;
  Modelled modelled;
  for (int i = 0; i < 3 || (!args.trace && Elapsed(start) < args.seconds); ++i) {
    const std::string what = "run " + std::to_string(i + 1);
    auto ran = RunOnce(cfg);
    if (!ran.ok()) {
      verdict.AddError(what, ran.status());
      break;
    }
    const RunSample& s = ran.ValueOrDie();
    verdict.AddRun(what, s.check, s.metric_json);
    setup_s.push_back(s.setup_s);
    run_s.push_back(s.run_s);
    wall_s.push_back(s.setup_s + s.run_s);
    queries_per_s.push_back(static_cast<double>(s.modelled.queries) / (s.setup_s + s.run_s));
    if (i == 0) modelled = s.modelled;
    std::printf("# %s: setup_s=%.4f run_s=%.4f events=%llu digest=%s\n", what.c_str(),
                s.setup_s, s.run_s, static_cast<unsigned long long>(s.events),
                DigestHex(s.metric_json).c_str());
    std::fflush(stdout);
  }
  const double peak_rss_mb = PeakRssMib();

  // Traced runs: the per-layer numbers.
  std::vector<std::map<std::string, double>> layers;
  if (args.trace) {
    const double untraced_wall = ComputeQuartiles(wall_s).median;
    for (int i = 0; i < 2 || Elapsed(start) < args.seconds; ++i) {
      const std::string what = "traced run " + std::to_string(i + 1);
      auto traced = RunTraced(cfg, &AllocCount);
      if (!traced.ok()) {
        verdict.AddError(what, traced.status());
        break;
      }
      TracedRun t = std::move(traced).ValueOrDie();
      t.layers["trace.overhead_s"] = t.wall_s - untraced_wall;
      std::vector<std::string> extra = t.replay_mismatches;
      for (const MetricSpec& spec : PerLayerMetrics()) {
        if (spec.exact && !layers.empty() && layers.front()[spec.name] != t.layers[spec.name]) {
          extra.push_back(spec.name + " differs between traced runs");
        }
      }
      verdict.AddRun(what, t.sample.check, t.sample.metric_json, std::move(extra));
      layers.push_back(std::move(t.layers));
      std::printf("# %s: wall_s=%.4f setup_s=%.4f run_s=%.4f digest=%s\n", what.c_str(),
                  t.wall_s, t.sample.setup_s, t.sample.run_s,
                  DigestHex(t.sample.metric_json).c_str());
      std::fflush(stdout);
    }
  }

  // Shard invariance: the same workload on one shard must produce the same
  // metric JSON as the sharded runs.
  if (cfg.scheduler.shards > 1) {
    ExperimentConfig single = cfg;
    single.scheduler.shards = 1;
    auto ran = RunOnce(single);
    if (!ran.ok()) {
      verdict.AddError("shards=1 run", ran.status());
    } else {
      verdict.AddRun("shards=1 run", ran.ValueOrDie().check, ran.ValueOrDie().metric_json);
      std::printf("# shards=1 run: digest=%s\n",
                  DigestHex(ran.ValueOrDie().metric_json).c_str());
    }
  }

  std::remove(trace_path.c_str());
  std::printf("# host: load1_after=%.2f\n", ReadLoad1());
  std::printf("# metric JSON digest: %s\n", DigestHex(verdict.reference()).c_str());

  std::vector<Metric> out;
  if (!args.trace) {
    std::printf("# end-to-end (host times over untraced runs; modelled metrics exact;\n"
                "# run_s and queries_per_s are reported here only, not in the result):\n");
    PrintQuartiles("setup_s", "s", setup_s);
    PrintQuartiles("run_s", "s", run_s);
    PrintQuartiles("queries_per_s", "queries/s", queries_per_s);
    const TailPercentile& p99 = modelled.first_response_ms_p99;
    std::printf("  first_response_ms_p99: p%.4g of %zu samples, %zu beyond%s\n",
                p99.reported_p, p99.samples, p99.beyond,
                p99.supported ? "" : " (FLAG: p99 unsupported, lower percentile reported)");
    const std::map<std::string, double> values = {
        {"setup_s", ComputeQuartiles(setup_s).median},
        {"peak_rss_mb", peak_rss_mb},
        {"success_rate", modelled.success_rate},
        {"search_msgs_per_query", modelled.search_msgs_per_query},
        {"maintenance_msgs_per_query", modelled.maintenance_msgs_per_query},
        {"download_ms", modelled.download_ms},
        {"first_response_ms_p50", modelled.first_response_ms_p50},
        {"first_response_ms_p99", p99.value},
    };
    for (const MetricSpec& spec : EndToEndMetrics()) {
      out.push_back({spec.name, spec.unit, values.at(spec.name)});
    }
  } else {
    std::printf("# per-layer (median over %zu traced runs; exact counters repeat):\n",
                layers.size());
    for (const MetricSpec& spec : PerLayerMetrics()) {
      std::vector<double> v;
      for (auto& l : layers) v.push_back(l[spec.name]);
      out.push_back({spec.name, spec.unit, ComputeQuartiles(v).median});
      if (!spec.exact) PrintQuartiles(spec.name.c_str(), spec.unit.c_str(), v);
    }
  }
  for (const Metric& m : out) {
    std::printf("  %-32s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : verdict.problems()) std::printf("# CHECK FAILED %s\n", p.c_str());
  std::printf("# checks: %s (attempted %llu queries, failed %llu)\n",
              verdict.correct() ? "all passed" : "FAILED",
              static_cast<unsigned long long>(verdict.attempted()),
              static_cast<unsigned long long>(verdict.failed()));
  PrintResult(verdict, out);
  return verdict.correct() ? 0 : 1;
}

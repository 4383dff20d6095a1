// Ablation: popularity skew vs search cost, structured and unstructured.
//
// Sweeps the workload's Zipf exponent across every registered protocol and
// splits success by popularity band: the head (ten most popular ranks) is
// where index caching can exploit temporal locality, the tail (rank 100 and
// deeper) is what a TTL-bounded search may never reach but a Chord lookup
// resolves in O(log n) hops. Search traffic alone flatters the DHT, so each
// row also prints its maintenance traffic per query — Bloom gossip, churn
// link repair and DHT publish/republish stores — the same total the
// perfbench maintenance_msgs_per_query metric reports.
//
// Like every dynamic-scenario bench this runs on the parallel engine:
// --shards=K is wall-clock-only, and the --json output is byte-identical for
// every K at a fixed seed (CI diffs shards=1 vs shards=4).
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "fig_common.h"
#include "metrics/report.h"

int main(int argc, char** argv) {
  using namespace locaware;
  const bench::FigOptions options = bench::ParseArgs(argc, argv);
  const uint64_t queries = options.num_queries;

  std::printf("== Ablation: popularity skew vs protocol (%llu queries) ==\n",
              static_cast<unsigned long long>(queries));
  std::printf("run: seed=%llu shards=%u\n\n",
              static_cast<unsigned long long>(options.seed), options.shards);

  struct Cell {
    core::ProtocolKind kind;
    double zipf;
  };
  std::vector<Cell> cells;
  for (double zipf : {0.4, 0.8, 1.2}) {
    for (core::ProtocolKind kind : core::AllProtocolKinds()) {
      cells.push_back({kind, zipf});
    }
  }

  std::vector<std::future<Result<core::ExperimentResult>>> futures;
  for (const Cell& cell : cells) {
    futures.push_back(std::async(std::launch::async, [cell, queries, &options] {
      core::ExperimentConfig cfg =
          core::MakePaperConfig(cell.kind, queries, options.seed);
      cfg.scheduler.shards = options.shards;
      cfg.scheduler.workers = options.workers;
      cfg.scheduler.placement = options.placement;
      cfg.workload.zipf_exponent = cell.zipf;
      char label[64];
      std::snprintf(label, sizeof label, "%s zipf=%.1f",
                    core::ProtocolKindName(cell.kind), cell.zipf);
      cfg.label = label;
      return core::RunExperiment(cfg, options.buckets);
    }));
  }
  // Failures are reported from the main thread after every worker joined (an
  // exit() inside a worker would tear down statics under running siblings).
  std::vector<core::ExperimentResult> results;
  results.reserve(futures.size());
  bool failed = false;
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      std::fprintf(stderr, "experiment failed: %s\n",
                   result.status().ToString().c_str());
      failed = true;
      continue;
    }
    results.push_back(std::move(result).ValueOrDie());
  }
  if (failed) return 1;

  std::printf("%-21s %5s %8s %8s %8s %9s %9s %9s %9s %9s\n", "cell", "zipf",
              "success", "msgs/q", "KB/q", "maint/q", "total/q", "dht hops",
              "head ok", "tail ok");
  double prev_zipf = -1;
  for (size_t i = 0; i < results.size(); ++i) {
    if (cells[i].zipf != prev_zipf && prev_zipf >= 0) std::printf("\n");
    prev_zipf = cells[i].zipf;
    const metrics::Summary& s = results[i].summary;
    // Head = the ten most popular ranks; tail = rank 100 and deeper.
    const auto bands =
        metrics::ByPopularity(results[i].records, {10, 100, 1u << 30});
    const double maint_per_query = bench::MaintenanceMsgsPerQuery(s);
    const double mean_hops =
        s.dht_lookups == 0
            ? 0.0
            : static_cast<double>(s.dht_hops) / static_cast<double>(s.dht_lookups);
    std::printf("%-21s %5.1f %7.1f%% %8.1f %8.2f %9.1f %9.1f %9.2f %8.1f%% %8.1f%%\n",
                results[i].label.c_str(), cells[i].zipf, s.success_rate * 100,
                s.msgs_per_query, s.bytes_per_query / 1024.0, maint_per_query,
                s.msgs_per_query + maint_per_query, mean_hops,
                bands[0].success_rate * 100, bands[2].success_rate * 100);
  }

  bench::MaybeWriteJson(results, options);

  std::printf(
      "\nreading guide: flooding's success hardly moves with skew. The cache\n"
      "protocols gain as skew rises ('zipf=1.2'), because repeat queries for\n"
      "the head keep their indexes hot, but they stay well below flooding at a\n"
      "small fraction of its traffic. The DHT resolves every published key in\n"
      "O(log n) hops whatever its rank: a lookup rides its route to the key's\n"
      "owner, which answers the requester directly, so it costs its route\n"
      "length + 1 messages and beats flooding's success with the lowest\n"
      "msgs/q here. maint/q is its price: every peer publishes, and\n"
      "periodically republishes, each of its files' keywords to the key's\n"
      "owner, one routed store per (keyword, file) costing its route length\n"
      "+ 1 messages. That alone is about twenty times the DHT's own search\n"
      "traffic and more than Locaware's Bloom gossip and search together;\n"
      "Flooding and Dicas pay none.\n"
      "Judge cost by total/q (msgs/q + maint/q): the DHT's total is about\n"
      "three times Locaware's and far below flooding's.\n");
  return 0;
}

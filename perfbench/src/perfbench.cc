#include "perfbench.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "metrics/report.h"
#include "net/landmark.h"
#include "net/underlay.h"
#include "overlay/overlay_graph.h"
#include "sim/shard_placement.h"

namespace perfbench {

namespace core = locaware::core;
namespace metrics = locaware::metrics;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PerQuery(uint64_t total, uint64_t queries) {
  return queries == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(queries);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

// --- workloads ---------------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paper_locaware", "scale_sharded",
                                                  "dht_churn"};
  return kNames;
}

Result<ExperimentConfig> MakeWorkloadConfig(std::string_view name) {
  constexpr uint64_t seed = kWorldSeed;
  if (name == "paper_locaware") {
    // The paper's §5.1 setup at its own scale: 1000 peers, 200 routers,
    // 3000 files, Zipf 1.0, TTL 7.
    ExperimentConfig cfg =
        core::MakePaperConfig(core::ProtocolKind::kLocaware, /*num_queries=*/30000, seed);
    return cfg;
  }
  if (name == "scale_sharded") {
    // BM_EngineScale's 1000-router underlay and 0.02 q/s/peer, on two
    // modulo-placed shards, with departures that keep its numbers steady
    // enough to gate on a shared host:
    //  * 20k peers, not 100k: at 100k peers (570 MB) Run's wall clock
    //    swung 2.5x between runs minutes apart as co-tenants loaded the
    //    memory system; 20k peers (~180 MB, still above the LLC) swing far
    //    less, and the underlay build, the largest setup layer, is the same;
    //  * Locaware, not Dicas: Dicas sends no maintenance traffic on a static
    //    overlay, and every end-to-end metric must be nonzero;
    //  * the paper's 3000-file catalog: with one file per peer a TTL-7
    //    search finds so few copies (~0.3% success at 100k) that the
    //    modelled metrics vary more between seeds than any bound absorbs.
    ExperimentConfig cfg =
        core::MakePaperConfig(core::ProtocolKind::kLocaware, /*num_queries=*/20000, seed);
    cfg.num_peers = 20000;
    cfg.underlay.num_routers = 1000;
    cfg.workload.query_rate_per_peer_s = 0.02;
    cfg.scheduler.shards = 2;
    cfg.scheduler.placement = locaware::sim::PlacementStrategy::kModulo;
    return cfg;
  }
  if (name == "dht_churn") {
    // Pure DHT lookups under the paper's default churn model (mean 30 min
    // online periods, 10 min offline gaps). 4000 queries at 5000 x 0.00083 q/s
    // end near t = 965 s, well inside the second 600 s republish period:
    // a horizon near a period boundary would let the query seed decide
    // whether a whole republish round (a fifth of all messages) runs.
    ExperimentConfig cfg =
        core::MakePaperConfig(core::ProtocolKind::kDht, /*num_queries=*/4000, seed);
    cfg.num_peers = 5000;
    cfg.churn.enabled = true;
    return cfg;
  }
  return Status::InvalidArgument("unknown workload: " + std::string(name));
}

Status UseSeededQueries(ExperimentConfig* world, uint64_t workload_seed,
                        const std::string& path) {
  namespace catalog = locaware::catalog;
  locaware::Rng catalog_rng = locaware::Rng(world->seed).Split("catalog");
  auto generated = catalog::FileCatalog::Generate(world->catalog, &catalog_rng);
  if (!generated.ok()) return generated.status();
  catalog::FileCatalog files = std::move(generated).ValueOrDie();

  // Which file holds which popularity rank belongs to the world: with about
  // one initial copy per file, whether the Zipf head happens to be stored
  // anywhere swings the success rate by a third from one permutation to the
  // next. So the world's own stream fixes rank -> file, and the seeded
  // stream contributes everything else: arrival times, requesters, sampled
  // ranks, and which keyword positions each query names.
  const auto stream = [&](uint64_t seed) {
    locaware::Rng rng = locaware::Rng(seed).Split("workload");
    return catalog::QueryWorkload::Generate(world->workload, files, world->num_peers, &rng);
  };
  auto own = stream(world->seed);
  if (!own.ok()) return own.status();
  auto seeded = stream(workload_seed);
  if (!seeded.ok()) return seeded.status();

  // Written in QueryWorkload::SaveTrace's text format, then converted to the
  // binary format the engine loads fastest.
  const std::string text_path = path + ".txt";
  {
    std::ofstream out(text_path);
    out << "# locaware-trace-v1: id requester target submit_us keywords...\n";
    for (const catalog::QueryEvent& q : seeded.ValueOrDie().queries()) {
      const auto& sampled = files.keywords(q.target);
      const locaware::FileId target =
          own.ValueOrDie().FileAtRank(seeded.ValueOrDie().RankOfFile(q.target));
      out << q.id << ' ' << q.requester << ' ' << target << ' ' << q.submit_time;
      const auto& remapped = files.keywords(target);
      for (locaware::KeywordId kw : q.keywords) {
        const size_t pos = std::find(sampled.begin(), sampled.end(), kw) - sampled.begin();
        if (pos >= remapped.size()) return Status::Internal("keyword outside its file");
        out << ' ' << files.keyword(remapped[pos]);
      }
      out << '\n';
    }
    if (!out.good()) return Status::IOError("cannot write " + text_path);
  }
  auto loaded = catalog::QueryWorkload::LoadTrace(text_path, &files);
  std::remove(text_path.c_str());
  if (!loaded.ok()) return loaded.status();
  LOCAWARE_RETURN_NOT_OK(loaded.ValueOrDie().SaveBinary(path, files));
  world->trace_path = path;
  return Status::OK();
}

// --- output checks -------------------------------------------------------------

std::string MetricJson(const Engine& engine) {
  core::ExperimentResult result;
  const ExperimentConfig& cfg = engine.config();
  result.label = cfg.label.empty() ? core::ProtocolKindName(cfg.protocol) : cfg.label;
  result.summary = metrics::Summarize(engine.metrics());
  result.series = metrics::Bucketize(engine.metrics().records(), /*num_buckets=*/10);
  return core::ResultToJson(result);
}

std::string DigestHex(std::string_view metric_json) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(locaware::Fnv1a64(metric_json)));
  return buf;
}

OutputCheck CheckRunOutput(const Engine& engine) {
  OutputCheck check;
  const auto& queries = engine.workload().queries();
  const auto& records = engine.metrics().records();
  if (records.size() != queries.size()) {
    check.problems.push_back("records: " + std::to_string(records.size()) + " for " +
                             std::to_string(queries.size()) + " queries");
  }
  if (engine.pending_query_count() != 0) {
    check.problems.push_back("pending_query_count " +
                             std::to_string(engine.pending_query_count()) + " after Run");
  }
  if (engine.tracked_query_count() != 0) {
    check.problems.push_back("tracked_query_count " +
                             std::to_string(engine.tracked_query_count()) + " after Run");
  }
  const size_t n = std::min(records.size(), queries.size());
  uint64_t inconsistent = 0;
  for (size_t i = 0; i < n; ++i) {
    const metrics::QueryRecord& r = records[i];
    const bool answered = r.source != metrics::AnswerSource::kNone;
    const bool consistent =
        r.qid == queries[i].id && r.requester == queries[i].requester &&
        r.submitted_at == queries[i].submit_time && r.success == answered &&
        (r.first_response_at == 0 || r.first_response_at >= r.submitted_at) &&
        r.download_distance_ms >= 0.0;
    if (!consistent) ++inconsistent;
  }
  if (inconsistent != 0) {
    check.problems.push_back(std::to_string(inconsistent) +
                             " inconsistent query records");
  }
  return check;
}

void Verdict::AddRun(const std::string& what, const OutputCheck& check,
                     const std::string& metric_json, std::vector<std::string> extra) {
  extra.insert(extra.end(), check.problems.begin(), check.problems.end());
  if (reference_.empty()) reference_ = metric_json;
  if (metric_json != reference_) {
    extra.push_back("metric JSON digest " + DigestHex(metric_json) + " != " +
                    DigestHex(reference_));
  }
  Tally(extra.empty());
  for (const std::string& p : extra) problems_.push_back(what + ": " + p);
}

void Verdict::Tally(bool ok) {
  attempted_ += queries_per_run_;
  if (!ok) failed_ += queries_per_run_;
}

void Verdict::AddError(const std::string& what, const Status& status) {
  Tally(/*ok=*/false);
  problems_.push_back(what + ": " + status.ToString());
}

// --- end-to-end metrics ----------------------------------------------------------

Modelled ComputeModelled(const Engine& engine) {
  const metrics::MetricsCollector& collector = engine.metrics();
  const metrics::Summary s = metrics::Summarize(collector);
  Modelled m;
  m.queries = s.num_queries;
  m.success_rate = s.success_rate;
  m.search_msgs_per_query = s.msgs_per_query;
  m.maintenance_msgs_per_query =
      PerQuery(s.bloom_update_msgs + s.repair_msgs + s.dht_store_msgs, s.num_queries);
  m.download_ms = s.avg_download_ms;
  m.first_response_ms_p50 = s.first_response_ms_p50;
  // Same sample set as Summarize's first-response histogram.
  std::vector<double> first_response_ms;
  for (const metrics::QueryRecord& r : collector.records()) {
    if (r.first_response_at == 0) continue;
    first_response_ms.push_back(locaware::sim::ToMs(r.first_response_at - r.submitted_at));
  }
  m.first_response_ms_p99 = SupportedPercentile(std::move(first_response_ms), 99.0);
  return m;
}

namespace {

// Reads everything a RunSample holds from a finished engine.
void FillSample(Engine& engine, RunSample* sample) {
  sample->events = engine.simulator().executed_count();
  sample->modelled = ComputeModelled(engine);
  sample->metric_json = MetricJson(engine);
  sample->check = CheckRunOutput(engine);
}

}  // namespace

Result<RunSample> RunOnce(const ExperimentConfig& config) {
  RunSample sample;
  const auto t0 = Clock::now();
  auto built = Engine::Create(config);
  sample.setup_s = SecondsSince(t0);
  if (!built.ok()) return built.status();
  std::unique_ptr<Engine> engine = std::move(built).ValueOrDie();
  const auto t1 = Clock::now();
  engine->Run();
  sample.run_s = SecondsSince(t1);
  FillSample(*engine, &sample);
  return sample;
}

// --- traced run ----------------------------------------------------------------

Result<SetupReplay> ReplaySetup(const ExperimentConfig& cfg) {
  if (cfg.use_uniform_underlay ||
      cfg.scheduler.placement != locaware::sim::PlacementStrategy::kModulo) {
    return Status::InvalidArgument(
        "setup replay covers the geometric underlay and modulo placement only");
  }
  SetupReplay r;
  const locaware::Rng root(cfg.seed);

  auto t = Clock::now();
  locaware::Rng underlay_rng = root.Split("underlay");
  auto underlay = locaware::net::GeometricUnderlay::Build(cfg.underlay, &underlay_rng);
  r.underlay_build_s = SecondsSince(t);
  if (!underlay.ok()) return underlay.status();
  std::unique_ptr<locaware::net::GeometricUnderlay> net = std::move(underlay).ValueOrDie();
  r.min_pair_rtt_ms = net->MinPairRttMs();

  t = Clock::now();
  r.loc_ids = locaware::net::ComputeAllLocIds(*net);
  r.locids_s = SecondsSince(t);

  t = Clock::now();
  locaware::Rng catalog_rng = root.Split("catalog");
  auto catalog = locaware::catalog::FileCatalog::Generate(cfg.catalog, &catalog_rng);
  r.catalog_generate_s = SecondsSince(t);
  if (!catalog.ok()) return catalog.status();
  locaware::catalog::FileCatalog files = std::move(catalog).ValueOrDie();
  r.num_files = files.num_files();

  t = Clock::now();
  locaware::Rng workload_rng = root.Split("workload");
  auto workload =
      cfg.trace_path.empty()
          ? locaware::catalog::QueryWorkload::Generate(cfg.workload, files, cfg.num_peers,
                                                       &workload_rng)
          : locaware::catalog::QueryWorkload::LoadAuto(cfg.trace_path, &files);
  r.workload_s = SecondsSince(t);
  if (!workload.ok()) return workload.status();
  r.num_queries = workload.ValueOrDie().queries().size();

  t = Clock::now();
  locaware::Rng placement_rng = root.Split("placement");
  r.initial_files = locaware::catalog::AssignInitialFiles(cfg.num_peers, cfg.files_per_peer,
                                                          files, &placement_rng);
  r.assign_files_s = SecondsSince(t);

  t = Clock::now();
  std::vector<size_t> peer_location(cfg.num_peers);
  for (size_t p = 0; p < cfg.num_peers; ++p) {
    peer_location[p] = net->LocationOf(static_cast<locaware::PeerId>(p));
  }
  const auto placement =
      locaware::sim::ShardPlacement::Modulo(cfg.scheduler.shards, peer_location);
  r.placement_s = SecondsSince(t);
  r.shard_peer_counts = placement.shard_peer_counts();

  t = Clock::now();
  locaware::Rng overlay_rng = root.Split("overlay");
  locaware::overlay::OverlayConfig ocfg;
  ocfg.num_peers = cfg.num_peers;
  ocfg.avg_degree = cfg.avg_degree;
  auto graph = locaware::overlay::OverlayGraph::Generate(ocfg, &overlay_rng);
  r.overlay_generate_s = SecondsSince(t);
  if (!graph.ok()) return graph.status();
  r.num_links = graph.ValueOrDie().num_links();
  return r;
}

std::vector<std::string> CompareReplay(const SetupReplay& r, const Engine& engine) {
  std::vector<std::string> diffs;
  const auto differ = [&diffs](const std::string& what, const auto& replayed,
                               const auto& built) {
    if (replayed != built) diffs.push_back(what + " differs from Engine::Create");
  };
  differ("underlay MinPairRttMs", r.min_pair_rtt_ms, engine.underlay().MinPairRttMs());
  std::vector<locaware::LocId> loc_ids(engine.num_peers());
  for (size_t p = 0; p < engine.num_peers(); ++p) {
    loc_ids[p] = engine.loc_of(static_cast<locaware::PeerId>(p));
  }
  differ("locIds", r.loc_ids, loc_ids);
  differ("catalog file count", r.num_files, engine.catalog().num_files());
  differ("workload query count", r.num_queries, engine.workload().queries().size());
  bool files_equal = r.initial_files.size() == engine.num_peers();
  for (size_t p = 0; files_equal && p < engine.num_peers(); ++p) {
    const auto& store = engine.node(static_cast<locaware::PeerId>(p)).file_store;
    files_equal = std::equal(r.initial_files[p].begin(), r.initial_files[p].end(),
                             store.begin(), store.end());
  }
  if (!files_equal) diffs.push_back("initial file assignment differs from Engine::Create");
  differ("shard peer counts", r.shard_peer_counts, engine.placement().shard_peer_counts());
  differ("overlay link count", r.num_links, engine.graph().num_links());
  return diffs;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s", false},
      {"peak_rss_mb", "MiB", false},
      {"success_rate", "fraction", true},
      {"search_msgs_per_query", "msgs", true},
      {"maintenance_msgs_per_query", "msgs", true},
      {"download_ms", "sim_ms", true},
      {"first_response_ms_p50", "sim_ms", true},
      {"first_response_ms_p99", "sim_ms", true},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"net.underlay_build_s", "s", false},
      {"net.locids_s", "s", false},
      {"catalog.generate_s", "s", false},
      {"catalog.workload_s", "s", false},
      {"catalog.assign_files_s", "s", false},
      {"overlay.generate_s", "s", false},
      {"overlay.repair_msgs_per_query", "msgs", true},
      {"overlay.churn_events", "count", true},
      {"overlay.stale_provider_hits", "count", true},
      {"sim.placement_s", "s", false},
      {"sim.events", "count", true},
      {"sim.run_ns_per_event", "ns", false},
      {"sim.windows", "count", true},
      {"sim.events_per_window", "events", true},
      {"sim.idle_share", "fraction", false},
      {"core.engine_residual_s", "s", false},
      {"core.query_msgs_per_query", "msgs", true},
      {"core.response_msgs_per_query", "msgs", true},
      {"cache.lookups", "count", true},
      {"cache.hit_ratio", "fraction", true},
      {"cache.inserts", "count", true},
      {"cache.evictions", "count", true},
      {"cache.invalidations", "count", true},
      {"cache.lookup_ns", "ns", false},
      {"bloom.update_msgs_per_query", "msgs", true},
      {"bloom.update_bytes_per_query", "bytes", true},
      {"bloom.fill_ratio", "fraction", true},
      {"bloom.est_fp_rate", "fraction", true},
      {"bloom.may_contain_ns", "ns", false},
      {"dht.lookups", "count", true},
      {"dht.hops_per_lookup", "hops", true},
      {"dht.store_msgs_per_lookup", "msgs", true},
      {"common.allocs_per_event", "allocs", false},
      {"common.arena_mb", "MiB", true},
      {"trace.overhead_s", "s", false},
  };
  return kSpecs;
}

namespace {

// Times ResponseIndex::LookupByKeywords over the workload's queries against
// each requester's post-run index. Returns ns per lookup (0 without indexes).
double TimeIndexLookups(const Engine& engine, uint64_t* sink) {
  const locaware::sim::SimTime now = engine.Now();
  uint64_t lookups = 0;
  std::vector<locaware::KeywordId> sorted;
  const auto t = Clock::now();
  for (const locaware::catalog::QueryEvent& ev : engine.workload().queries()) {
    const auto& ri = engine.node(ev.requester).ri;
    if (!ri) continue;
    sorted.assign(ev.keywords.begin(), ev.keywords.end());
    std::sort(sorted.begin(), sorted.end());
    *sink += ri->LookupByKeywords(sorted, now).size();
    ++lookups;
  }
  return lookups == 0 ? 0.0 : SecondsSince(t) * 1e9 / static_cast<double>(lookups);
}

// Times BloomFilter::MayContain over the workload's query keywords against
// each requester's post-run neighbor filters. Returns ns per probe.
double TimeBloomProbes(const Engine& engine, uint64_t* sink) {
  uint64_t probes = 0;
  std::vector<locaware::KeyHash128> hashes;
  const auto t = Clock::now();
  for (const locaware::catalog::QueryEvent& ev : engine.workload().queries()) {
    const auto& filters = engine.node(ev.requester).neighbor_filters;
    if (filters.empty()) continue;
    hashes.clear();
    for (locaware::KeywordId kw : ev.keywords) {
      hashes.push_back(engine.catalog().KeywordBloomHash(kw));
    }
    for (const auto& [neighbor, filter] : filters) {
      for (const locaware::KeyHash128& h : hashes) *sink += filter.MayContain(h) ? 1 : 0;
      probes += hashes.size();
    }
  }
  return probes == 0 ? 0.0 : SecondsSince(t) * 1e9 / static_cast<double>(probes);
}

}  // namespace

Result<TracedRun> RunTraced(const ExperimentConfig& config, AllocCounter allocs) {
  TracedRun traced;
  RunSample& sample = traced.sample;
  std::map<std::string, double>& L = traced.layers;
  const auto t_start = Clock::now();

  auto t = Clock::now();
  auto built = Engine::Create(config);
  sample.setup_s = SecondsSince(t);
  if (!built.ok()) return built.status();
  std::unique_ptr<Engine> engine = std::move(built).ValueOrDie();

  // The setup layers again, through their public factories, from the
  // engine's normalized config; their outputs must equal what Create built.
  {
    auto replayed = ReplaySetup(engine->config());
    if (!replayed.ok()) return replayed.status();
    const SetupReplay& r = replayed.ValueOrDie();
    traced.replay_mismatches = CompareReplay(r, *engine);
    L["net.underlay_build_s"] = r.underlay_build_s;
    L["net.locids_s"] = r.locids_s;
    L["catalog.generate_s"] = r.catalog_generate_s;
    L["catalog.workload_s"] = r.workload_s;
    L["catalog.assign_files_s"] = r.assign_files_s;
    L["overlay.generate_s"] = r.overlay_generate_s;
    L["sim.placement_s"] = r.placement_s;
    L["core.engine_residual_s"] = sample.setup_s - r.timed_s();
  }

  const uint64_t allocs_before = allocs != nullptr ? allocs() : 0;
  t = Clock::now();
  engine->Run();
  sample.run_s = SecondsSince(t);
  const uint64_t run_allocs = allocs != nullptr ? allocs() - allocs_before : 0;
  FillSample(*engine, &sample);

  const metrics::MetricsCollector& m = engine->metrics();
  const uint64_t queries = m.records().size();
  const double events = static_cast<double>(sample.events);
  const ExperimentConfig& cfg = engine->config();
  const uint32_t workers =
      cfg.scheduler.workers == 0 ? cfg.scheduler.shards : cfg.scheduler.workers;

  L["overlay.repair_msgs_per_query"] = PerQuery(m.repair_msgs(), queries);
  L["overlay.churn_events"] = static_cast<double>(m.churn_events());
  L["overlay.stale_provider_hits"] = static_cast<double>(m.stale_provider_hits());

  L["sim.events"] = events;
  L["sim.run_ns_per_event"] = Ratio(sample.run_s * 1e9, events);
  L["sim.windows"] = static_cast<double>(m.scheduler_windows());
  L["sim.events_per_window"] = Ratio(events, static_cast<double>(m.scheduler_windows()));
  L["sim.idle_share"] = Ratio(static_cast<double>(m.scheduler_idle_ns()),
                              sample.run_s * 1e9 * static_cast<double>(workers));

  uint64_t query_msgs = 0;
  uint64_t response_msgs = 0;
  for (const metrics::QueryRecord& r : m.records()) {
    query_msgs += r.query_msgs;
    response_msgs += r.response_msgs;
  }
  L["core.query_msgs_per_query"] = PerQuery(query_msgs, queries);
  L["core.response_msgs_per_query"] = PerQuery(response_msgs, queries);

  locaware::cache::ResponseIndex::Stats cache;
  double fill = 0.0;
  double fp = 0.0;
  size_t filters = 0;
  for (size_t p = 0; p < engine->num_peers(); ++p) {
    const core::NodeState& n = engine->node(static_cast<locaware::PeerId>(p));
    if (n.ri) {
      const auto& s = n.ri->stats();
      cache.lookups += s.lookups;
      cache.hits += s.hits;
      cache.inserts += s.inserts;
      cache.evictions += s.evictions;
      cache.invalidations += s.invalidations;
    }
    if (n.advertised_filter) {
      fill += n.advertised_filter->FillRatio();
      fp += n.advertised_filter->EstimatedFpRate();
      ++filters;
    }
  }
  L["cache.lookups"] = static_cast<double>(cache.lookups);
  L["cache.hit_ratio"] =
      Ratio(static_cast<double>(cache.hits), static_cast<double>(cache.lookups));
  L["cache.inserts"] = static_cast<double>(cache.inserts);
  L["cache.evictions"] = static_cast<double>(cache.evictions);
  L["cache.invalidations"] = static_cast<double>(cache.invalidations);

  L["bloom.update_msgs_per_query"] = PerQuery(m.bloom_update_msgs(), queries);
  L["bloom.update_bytes_per_query"] = PerQuery(m.bloom_update_bytes(), queries);
  L["bloom.fill_ratio"] = Ratio(fill, static_cast<double>(filters));
  L["bloom.est_fp_rate"] = Ratio(fp, static_cast<double>(filters));

  L["dht.lookups"] = static_cast<double>(m.dht_lookups());
  L["dht.hops_per_lookup"] = PerQuery(m.dht_hops(), m.dht_lookups());
  L["dht.store_msgs_per_lookup"] = PerQuery(m.dht_store_msgs(), m.dht_lookups());

  L["common.allocs_per_event"] = Ratio(static_cast<double>(run_allocs), events);
  double arena_bytes = 0.0;
  for (uint32_t s = 0; s < engine->num_shards(); ++s) {
    arena_bytes += static_cast<double>(engine->shard_arena(s).bytes_reserved());
  }
  L["common.arena_mb"] = arena_bytes / (1024.0 * 1024.0);

  // Replays on the post-run state go last: LookupByKeywords counts as a use
  // and reorders each index's LRU list, and the metric JSON is already taken.
  uint64_t sink = 0;
  L["bloom.may_contain_ns"] = TimeBloomProbes(*engine, &sink);
  L["cache.lookup_ns"] = TimeIndexLookups(*engine, &sink);
  volatile uint64_t keep = sink;  // the replays' results stay observable
  (void)keep;

  engine.reset();
  traced.wall_s = SecondsSince(t_start);
  return traced;
}

// --- host context --------------------------------------------------------------

double ReadLoad1() {
  std::ifstream in("/proc/loadavg");
  double load = -1.0;
  if (!(in >> load)) return -1.0;
  return load;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostContext ReadHostContext() {
  HostContext h;
  char name[256] = {};
  if (gethostname(name, sizeof(name) - 1) == 0) h.hostname = name;
  h.nproc = std::thread::hardware_concurrency();
  h.load1 = ReadLoad1();
  h.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

}  // namespace perfbench

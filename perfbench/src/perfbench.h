// The repository benchmark's logic: its named workloads, the output checks
// every run must pass, the end-to-end metrics of one untraced run, and the
// traced run that times each setup layer through its public factory and
// reads the run's per-layer counters from public accessors afterwards.
//
// Every run goes through the public core::Engine::Create -> Run API; nothing
// here adds instrumentation inside the simulator.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/experiment_config.h"
#include "stats.h"

namespace perfbench {

using locaware::Result;
using locaware::Status;
using locaware::core::Engine;
using locaware::core::ExperimentConfig;

// --- workloads ---------------------------------------------------------------

/// The benchmark's workload names, in BENCHMARK.json order (which also
/// records why each was chosen).
const std::vector<std::string>& WorkloadNames();

/// Seed of every workload's world: underlay, overlay, catalog, initial file
/// placement and the engine's decision streams. The benchmark's --seed
/// drives the query stream only, so runs at different seeds measure the
/// same system on different inputs rather than different systems.
inline constexpr uint64_t kWorldSeed = 42;

/// The config of workload `name`'s world (seed kWorldSeed, queries
/// generated from it). InvalidArgument for an unknown name.
Result<ExperimentConfig> MakeWorkloadConfig(std::string_view name);

/// Writes the query stream of `world` at `workload_seed` as a binary trace
/// to `path` and points `world.trace_path` at it. The popularity ranking
/// (which file is the Zipf head) is the world's own; arrival times,
/// requesters, sampled ranks and keyword choices come from the
/// Rng(workload_seed).Split("workload") stream, exactly as the engine would
/// draw them. At workload_seed == world.seed the run equals the one that
/// generates its workload in Engine::Create.
Status UseSeededQueries(ExperimentConfig* world, uint64_t workload_seed,
                        const std::string& path);

// --- output checks -------------------------------------------------------------

/// The byte-compared metric JSON of a finished run: exactly what
/// core::ResultToJson renders for core::RunExperiment's result (10 buckets).
std::string MetricJson(const Engine& engine);

/// 64-bit FNV-1a digest of a metric JSON document, as 16 hex digits.
std::string DigestHex(std::string_view metric_json);

/// Result of checking one finished run's own output.
struct OutputCheck {
  std::vector<std::string> problems;  ///< empty when every check held
  bool ok() const { return problems.empty(); }
};

/// Checks a finished run: one record per workload query, in workload order;
/// no pending or tracked query left behind; each record internally
/// consistent (a success names an answer source and vice versa; a first
/// response never precedes its submission).
OutputCheck CheckRunOutput(const Engine& engine);

/// The checks and failed-operation tally of one invocation. An operation is
/// one simulated query; a run that errors or fails any check fails every
/// query it holds. The first run's metric JSON is the reference every later
/// run (untraced, traced, or at another shard count) must reproduce byte for
/// byte.
class Verdict {
 public:
  explicit Verdict(uint64_t queries_per_run) : queries_per_run_(queries_per_run) {}

  /// Records a finished run: its output check, its metric JSON, and any
  /// further problems the caller found (`extra`).
  void AddRun(const std::string& what, const OutputCheck& check,
              const std::string& metric_json, std::vector<std::string> extra = {});
  /// Records a run that did not finish: all its queries failed.
  void AddError(const std::string& what, const Status& status);

  bool correct() const { return problems_.empty() && attempted_ > 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }
  const std::string& reference() const { return reference_; }

 private:
  /// Records the run's queries as attempted, and as failed unless `ok`.
  void Tally(bool ok);

  uint64_t queries_per_run_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> problems_;
  std::string reference_;
};

// --- end-to-end metrics of one untraced run ---------------------------------

/// The paper's modelled quantities (exact for a given seed), in simulated
/// time where they are times.
struct Modelled {
  uint64_t queries = 0;
  double success_rate = 0.0;
  double search_msgs_per_query = 0.0;       ///< query + response + probe
  double maintenance_msgs_per_query = 0.0;  ///< Bloom + link repair + DHT store
  double download_ms = 0.0;                 ///< mean RTT to the chosen provider
  double first_response_ms_p50 = 0.0;
  TailPercentile first_response_ms_p99;
};

Modelled ComputeModelled(const Engine& engine);

struct RunSample {
  double setup_s = 0.0;  ///< wall clock of Engine::Create
  double run_s = 0.0;    ///< wall clock of Engine::Run
  uint64_t events = 0;
  Modelled modelled;
  std::string metric_json;
  OutputCheck check;
};

/// One untraced Create -> Run of `config`, with its output checked.
Result<RunSample> RunOnce(const ExperimentConfig& config);

// --- traced run ----------------------------------------------------------------

/// The setup layers rebuilt through their public factories with the engine's
/// name-keyed Rng streams and normalized config, each timed.
struct SetupReplay {
  double underlay_build_s = 0.0;
  double locids_s = 0.0;
  double catalog_generate_s = 0.0;
  double workload_s = 0.0;
  double assign_files_s = 0.0;
  double placement_s = 0.0;
  double overlay_generate_s = 0.0;

  double min_pair_rtt_ms = 0.0;
  std::vector<locaware::LocId> loc_ids;
  size_t num_files = 0;
  size_t num_queries = 0;
  std::vector<std::vector<locaware::FileId>> initial_files;
  std::vector<size_t> shard_peer_counts;
  size_t num_links = 0;

  double timed_s() const {
    return underlay_build_s + locids_s + catalog_generate_s + workload_s +
           assign_files_s + placement_s + overlay_generate_s;
  }
};

/// Replays the setup layers of `normalized` (an engine's own config(), which
/// Create has normalized); the workload layer loads config.trace_path when
/// set, as the engine does. Geometric underlay and modulo placement only:
/// the benchmark's workloads use nothing else.
Result<SetupReplay> ReplaySetup(const ExperimentConfig& normalized);

/// Every way `replay` differs from what `engine` built (empty when equal).
/// Call before Run: churn rewires the overlay during the run.
std::vector<std::string> CompareReplay(const SetupReplay& replay, const Engine& engine);

/// Heap-allocation counter the traced run reads around Engine::Run; the
/// benchmark binary supplies one backed by its operator-new override.
using AllocCounter = uint64_t (*)();

struct TracedRun {
  RunSample sample;    ///< the traced run's own setup/run times, checks, JSON
  double wall_s = 0.0;  ///< replay + Create + Run + post-run replays
  std::vector<std::string> replay_mismatches;
  /// Per-layer metrics by name (see PerLayerMetrics for names and units).
  std::map<std::string, double> layers;
};

/// A traced Create -> Run: replays and times the setup layers, checks them
/// against the engine, counts allocations during Run (when `allocs` is
/// non-null), then reads per-layer counters and times LookupByKeywords and
/// MayContain replays on the post-run state.
Result<TracedRun> RunTraced(const ExperimentConfig& config, AllocCounter allocs);

struct MetricSpec {
  std::string name;
  std::string unit;
  /// True for values that are exact for a seed: every run of an invocation
  /// must read the same. The others (host-clock readings, memory and
  /// allocation counts) are reported as their median over runs.
  bool exact;
};

/// Every end-to-end metric an untraced invocation reports in its result
/// line, in order (BENCHMARK.json's end_to_end list). Run's wall clock and
/// queries per second are printed in the report with their quartiles but
/// are not result metrics: on a shared host their medians drift by up to 2x
/// within minutes, more than any regression bound could absorb.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Every per-layer metric a traced invocation reports, in report order
/// (BENCHMARK.json's per_layer list).
const std::vector<MetricSpec>& PerLayerMetrics();

// --- host context --------------------------------------------------------------

struct HostContext {
  std::string hostname;
  unsigned nproc = 0;
  double load1 = -1.0;  ///< 1-minute load average, -1 where unreadable
  std::string build_type;
  std::string compiler;
};

HostContext ReadHostContext();

/// The 1-minute load average from /proc/loadavg, -1 where unreadable.
double ReadLoad1();

/// Process peak resident set (VmHWM) in MiB, 0 where unreadable.
double PeakRssMib();

}  // namespace perfbench

// Microbenchmarks for the underlay: Waxman build + APSP cost, the O(1) RTT
// lookups the engine makes per message, and locId computation.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "net/landmark.h"
#include "net/underlay.h"

namespace {

using locaware::PeerId;
using locaware::Rng;
using locaware::net::GeometricUnderlay;
using locaware::net::GeometricUnderlayConfig;

void BM_BuildGeometric(benchmark::State& state) {
  GeometricUnderlayConfig cfg;
  cfg.num_routers = static_cast<size_t>(state.range(0));
  cfg.num_peers = 1000;
  uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    auto u = GeometricUnderlay::Build(cfg, &rng);
    benchmark::DoNotOptimize(u);
  }
  state.SetLabel("routers=" + std::to_string(state.range(0)) + " (incl. APSP)");
}
// Arg(1000) is scale_sharded's router count in perfbench, where this build is
// the largest setup layer (net.underlay_build_s).
BENCHMARK(BM_BuildGeometric)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_RttLookup(benchmark::State& state) {
  Rng rng(2);
  GeometricUnderlayConfig cfg;
  cfg.num_routers = 200;
  cfg.num_peers = 1000;
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  PeerId a = 0, b = 500;
  double sink = 0;
  for (auto _ : state) {
    a = (a + 1) % 1000;
    b = (b + 7) % 1000;
    sink += u->RttMs(a, b);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RttLookup);

void BM_ComputeLocId(benchmark::State& state) {
  Rng rng(3);
  GeometricUnderlayConfig cfg;
  cfg.num_routers = 200;
  cfg.num_peers = 1000;
  cfg.num_landmarks = static_cast<size_t>(state.range(0));
  auto u = std::move(GeometricUnderlay::Build(cfg, &rng)).ValueOrDie();
  PeerId p = 0;
  for (auto _ : state) {
    p = (p + 1) % 1000;
    benchmark::DoNotOptimize(locaware::net::ComputeLocId(*u, p));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComputeLocId)->Arg(4)->Arg(8);

}  // namespace

// Microbenchmarks for the Bloom-filter subsystem: the per-query cost of
// Locaware's routing checks, the per-update cost of delta gossip, and the
// bytes one peer's filter set holds.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bloom/bloom_delta.h"
#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "heap_count.h"

namespace {

using locaware::bench::HeapLiveBytes;
using locaware::bloom::BloomFilter;
using locaware::bloom::CountingBloomFilter;

std::vector<std::string> MakeKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back("keyword" + std::to_string(i));
  return keys;
}

void BM_BloomInsert(benchmark::State& state) {
  const auto keys = MakeKeys(1024);
  BloomFilter bf(static_cast<size_t>(state.range(0)), 4);
  size_t i = 0;
  for (auto _ : state) {
    bf.Insert(keys[i++ & 1023]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomInsert)->Arg(1200)->Arg(4096)->Arg(65536);

void BM_BloomMayContain(benchmark::State& state) {
  // The hot path: a Locaware node checks each neighbor filter against every
  // query keyword. Filter filled to the paper's design point (~150 keys).
  const auto keys = MakeKeys(1024);
  BloomFilter bf(static_cast<size_t>(state.range(0)), 4);
  for (size_t i = 0; i < 150; ++i) bf.Insert(keys[i]);
  size_t i = 0;
  bool sink = false;
  for (auto _ : state) {
    sink ^= bf.MayContain(keys[i++ & 1023]);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomMayContain)->Arg(1200)->Arg(4096);

void BM_CountingInsertRemove(benchmark::State& state) {
  const auto keys = MakeKeys(1024);
  CountingBloomFilter cbf(1200, 4);
  size_t i = 0;
  for (auto _ : state) {
    const std::string& k = keys[i++ & 1023];
    cbf.Insert(k);
    cbf.Remove(k);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CountingInsertRemove);

void BM_DeltaApply(benchmark::State& state) {
  // A receiver applying one filename's update: the paper's <=12 positions.
  BloomFilter target(1200, 4);
  std::vector<uint32_t> positions;
  for (int i = 0; i < 12; ++i) positions.push_back(i * 97 % 1200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locaware::bloom::ApplyDelta(1200, positions, &target));
  }
}
BENCHMARK(BM_DeltaApply);

void BM_PeerFilterSetFootprint(benchmark::State& state) {
  // One Locaware peer's Bloom state at the paper's 1200 bits: the counting
  // filter, the advertised filter, and 3 neighbors' filter copies in a
  // neighbor table (the engine's NodeState layout). Heap-backed: the engine
  // carves the table from its shard arena, in a power-of-two chunk.
  int64_t bytes = 0;
  for (auto _ : state) {
    const int64_t before = HeapLiveBytes();
    auto counting = std::make_unique<CountingBloomFilter>(1200, 4);
    auto advertised = std::make_unique<BloomFilter>(1200, 4);
    locaware::FlatMap<locaware::PeerId, BloomFilter> neighbors;
    for (locaware::PeerId nb = 0; nb < 3; ++nb) neighbors.try_emplace(nb, 1200, 4);
    bytes = HeapLiveBytes() - before;
    benchmark::DoNotOptimize(neighbors);
  }
  state.counters["bytes/peer"] = static_cast<double>(bytes);
}
BENCHMARK(BM_PeerFilterSetFootprint);

}  // namespace

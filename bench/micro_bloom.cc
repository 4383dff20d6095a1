// Microbenchmarks for the Bloom-filter subsystem: the per-query cost of
// Locaware's routing checks, the per-update cost of delta gossip, and the
// bytes one peer's filter set holds.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bloom/bloom_delta.h"
#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "common/flat_map.h"
#include "common/types.h"

// --- heap accounting ---------------------------------------------------------
// Bench-binary-wide operator new/delete overrides tracking live heap bytes
// (the allocator's usable block sizes); BM_PeerFilterSetFootprint reports the
// delta around building one peer's filters.
namespace {
thread_local int64_t g_live_bytes = 0;

void CountFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size)) {
    g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { CountFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountFree(p); }

namespace {

using locaware::bloom::BloomDelta;
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

void BM_DeltaComputeOneFilename(benchmark::State& state) {
  // One cached filename = 3 keywords x 4 probes: the paper's <=12 changed
  // bits. Measures ComputeDelta over the full 1200-bit vector.
  BloomFilter before(1200, 4);
  for (size_t i = 0; i < 150; ++i) before.Insert("base" + std::to_string(i));
  BloomFilter after = before;
  after.Insert("fresh-alpha");
  after.Insert("fresh-beta");
  after.Insert("fresh-gamma");
  for (auto _ : state) {
    BloomDelta delta = ComputeDelta(before, after);
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_DeltaComputeOneFilename);

void BM_DeltaEncodeDecode(benchmark::State& state) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (int i = 0; i < state.range(0); ++i) after.ToggleBit(i * 7 % 1200);
  const BloomDelta delta = ComputeDelta(before, after);
  for (auto _ : state) {
    const auto wire = EncodeDelta(delta);
    auto decoded = locaware::bloom::DecodeDelta(wire, 1200);
    benchmark::DoNotOptimize(decoded);
  }
  state.counters["wire_bytes"] =
      static_cast<double>(EncodeDelta(delta).size());
}
BENCHMARK(BM_DeltaEncodeDecode)->Arg(12)->Arg(120);

void BM_DeltaApply(benchmark::State& state) {
  BloomFilter target(1200, 4);
  BloomDelta delta;
  delta.filter_bits = 1200;
  for (int i = 0; i < 12; ++i) delta.positions.push_back(i * 97 % 1200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyDelta(delta, &target));
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
    const int64_t before = g_live_bytes;
    auto counting = std::make_unique<CountingBloomFilter>(1200, 4);
    auto advertised = std::make_unique<BloomFilter>(1200, 4);
    locaware::FlatMap<locaware::PeerId, BloomFilter> neighbors;
    for (locaware::PeerId nb = 0; nb < 3; ++nb) neighbors.try_emplace(nb, 1200, 4);
    bytes = g_live_bytes - before;
    benchmark::DoNotOptimize(neighbors);
  }
  state.counters["bytes/peer"] = static_cast<double>(bytes);
}
BENCHMARK(BM_PeerFilterSetFootprint);

}  // namespace

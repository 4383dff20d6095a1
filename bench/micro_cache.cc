// Microbenchmarks for the response index: insertion with eviction pressure
// and the keyword-containment lookups every visited node performs. All on
// the id plane — see bench/micro_intern.cc for the string-vs-id comparison.
//
// The index's per-entry lists (keywords, providers, postings) live in
// SmallVectors with inline capacity, so steady-state churn should not touch
// the allocator at all. Every benchmark therefore reports an `allocs/op`
// counter next to its time: the small-vector win is that number pinned at
// ~0 on the hot paths (the string/vector era paid several per insert).
// BM_IndexFootprint weighs what an index holds per cached file.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "cache/response_index.h"

// --- allocation accounting ---------------------------------------------------
// Bench-binary-wide operator new/delete overrides with thread-local
// counters: allocation calls, and live bytes as the allocator's usable block
// sizes. Only deltas around measured regions are reported, so the benchmark
// harness's own allocations outside the loop do not pollute the numbers.
namespace {
thread_local uint64_t g_alloc_count = 0;
thread_local int64_t g_live_bytes = 0;

void CountFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size)) {
    g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { CountFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountFree(p); }

namespace {

using locaware::FileId;
using locaware::KeywordId;
using locaware::cache::EvictionPolicy;
using locaware::cache::ProviderEntry;
using locaware::cache::ResponseIndex;
using locaware::cache::ResponseIndexConfig;

struct Corpus {
  std::vector<FileId> files;
  std::vector<std::vector<KeywordId>> keywords;  // sorted ascending
};

// Mirrors the old string corpus ("alpha<i%97> beta<i%31> gamma<i>"): a hot
// shared id space, a mid-frequency space, and a unique id per file.
Corpus MakeCorpus(size_t n) {
  Corpus c;
  for (size_t i = 0; i < n; ++i) {
    c.files.push_back(static_cast<FileId>(i));
    std::vector<KeywordId> kws{static_cast<KeywordId>(i % 97),
                               static_cast<KeywordId>(100 + i % 31),
                               static_cast<KeywordId>(200 + i)};
    c.keywords.push_back(std::move(kws));
  }
  return c;
}

/// Attaches the allocations-per-iteration counter for the measured region.
void ReportAllocs(benchmark::State& state, uint64_t allocs_before) {
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(g_alloc_count - allocs_before),
      benchmark::Counter::kAvgIterations);
}

void BM_AddProviderWithEviction(benchmark::State& state) {
  const Corpus corpus = MakeCorpus(1024);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;  // paper-sized: constant eviction pressure
  cfg.max_providers_per_file = 8;
  cfg.eviction = static_cast<EvictionPolicy>(state.range(0));
  ResponseIndex ri(cfg);
  size_t i = 0;
  locaware::sim::SimTime now = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    const size_t f = i++ & 1023;
    ri.AddProvider(corpus.files[f], corpus.keywords[f],
                   ProviderEntry{static_cast<uint32_t>(i % 1000), 0, 0}, now++);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddProviderWithEviction)
    ->Arg(static_cast<int>(EvictionPolicy::kLru))
    ->Arg(static_cast<int>(EvictionPolicy::kFifo))
    ->Arg(static_cast<int>(EvictionPolicy::kRandom));

void BM_LookupByKeywords(benchmark::State& state) {
  // A full 50-file index probed with a 2-keyword query — the per-node cost a
  // query pays at every hop.
  const Corpus corpus = MakeCorpus(50);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  ResponseIndex ri(cfg);
  for (size_t f = 0; f < 50; ++f) {
    ri.AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0}, 0);
  }
  size_t i = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    const size_t f = i++ % 50;
    const KeywordId query[2] = {corpus.keywords[f][0], corpus.keywords[f][2]};
    auto hits = ri.LookupByKeywords(query, 1);
    benchmark::DoNotOptimize(hits);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LookupByKeywords);

void BM_LookupMiss(benchmark::State& state) {
  const Corpus corpus = MakeCorpus(50);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  ResponseIndex ri(cfg);
  for (size_t f = 0; f < 50; ++f) {
    ri.AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0}, 0);
  }
  const std::vector<KeywordId> absent{90000};
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    auto hits = ri.LookupByKeywords(absent, 1);
    benchmark::DoNotOptimize(hits);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LookupMiss);

void BM_ProviderRefresh(benchmark::State& state) {
  // Locaware constantly refreshes providers of hot files (§4.1.2); measure
  // the move-to-front path. Pure in-place SmallVector shuffling: 0 allocs.
  const Corpus corpus = MakeCorpus(1);
  ResponseIndexConfig cfg;
  cfg.max_providers_per_file = 8;
  ResponseIndex ri(cfg);
  locaware::sim::SimTime now = 0;
  for (uint32_t p = 0; p < 8; ++p) {
    ri.AddProvider(corpus.files[0], corpus.keywords[0], ProviderEntry{p, 0, 0},
                   now++);
  }
  uint32_t p = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    ri.AddProvider(corpus.files[0], corpus.keywords[0],
                   ProviderEntry{p++ & 7, 0, 0}, now++);
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProviderRefresh);

void BM_ExpireStaleSweep(benchmark::State& state) {
  const Corpus corpus = MakeCorpus(50);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  cfg.entry_ttl = 1000;
  for (auto _ : state) {
    state.PauseTiming();
    ResponseIndex ri(cfg);
    for (size_t f = 0; f < 50; ++f) {
      ri.AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0},
                     0);
    }
    state.ResumeTiming();
    auto removed = ri.ExpireStale(5000);
    benchmark::DoNotOptimize(removed);
  }
}
BENCHMARK(BM_ExpireStaleSweep);

void BM_SteadyStateChurn(benchmark::State& state) {
  // The engine's actual per-node life: a full index absorbing inserts (with
  // eviction), provider refreshes, and containment lookups in a fixed ratio.
  // This is the lever's acceptance number — with inline posting/provider/
  // keyword storage the mixed path settles near 0 allocs/op (the residual is
  // the Hit vector a successful lookup returns).
  const Corpus corpus = MakeCorpus(1024);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  cfg.max_providers_per_file = 8;
  ResponseIndex ri(cfg);
  for (size_t f = 0; f < 50; ++f) {
    ri.AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0}, 0);
  }
  size_t i = 0;
  locaware::sim::SimTime now = 0;
  const uint64_t allocs_before = g_alloc_count;
  for (auto _ : state) {
    const size_t f = i & 1023;
    // 3 parts insert/refresh churn to 1 part lookup, like a visited node
    // that caches passing responses and answers the occasional query.
    if ((i & 3) != 3) {
      ri.AddProvider(corpus.files[f], corpus.keywords[f],
                     ProviderEntry{static_cast<uint32_t>(i % 1000), 0, 0}, now++);
    } else {
      const KeywordId query[2] = {corpus.keywords[f][0], corpus.keywords[f][1]};
      auto hits = ri.LookupByKeywords(query, now);
      benchmark::DoNotOptimize(hits);
    }
    ++i;
  }
  ReportAllocs(state, allocs_before);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SteadyStateChurn);

void BM_IndexFootprint(benchmark::State& state) {
  // Heap bytes per cached file for an index holding range(0) files with one
  // provider each — the object, its entry storage, the slot and posting
  // tables. Most peers cache a handful of files, so the small rows are the
  // ones peak RSS feels. Heap-backed (no arena): bytes are the allocator's
  // usable block sizes, where an arena would round to powers of two.
  const size_t files = static_cast<size_t>(state.range(0));
  const Corpus corpus = MakeCorpus(files);
  ResponseIndexConfig cfg;
  cfg.max_filenames = 50;
  int64_t bytes = 0;
  for (auto _ : state) {
    const int64_t before = g_live_bytes;
    auto ri = std::make_unique<ResponseIndex>(cfg);
    for (size_t f = 0; f < files; ++f) {
      ri->AddProvider(corpus.files[f], corpus.keywords[f], ProviderEntry{1, 0, 0}, 0);
    }
    bytes = g_live_bytes - before;
    benchmark::DoNotOptimize(ri);
  }
  state.counters["bytes/entry"] =
      static_cast<double>(bytes) / static_cast<double>(files);
}
BENCHMARK(BM_IndexFootprint)->Arg(1)->Arg(3)->Arg(50);

}  // namespace

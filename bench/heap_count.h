// Heap accounting for the micro benches that weigh memory (micro_bloom,
// micro_cache). heap_count.cc replaces the global operator new/delete of the
// binary it is linked into with thread-local counters; benches read the
// deltas around a measured region, so the harness's own allocations outside
// it do not pollute the numbers.
#pragma once

#include <cstdint>

namespace locaware::bench {

/// operator new calls made by the calling thread so far.
uint64_t HeapAllocCount();

/// Heap bytes the calling thread holds live, counted as the allocator's
/// usable block sizes (what a block really costs, not what was asked for).
int64_t HeapLiveBytes();

}  // namespace locaware::bench

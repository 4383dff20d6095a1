// Kept in its own translation unit: inlined next to container code, GCC
// mistakes the malloc/free pairing below for a mismatched new/delete.
#include "heap_count.h"

#include <malloc.h>

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
thread_local uint64_t g_alloc_count = 0;
thread_local int64_t g_live_bytes = 0;

void CountFree(void* p) {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

uint64_t locaware::bench::HeapAllocCount() { return g_alloc_count; }
int64_t locaware::bench::HeapLiveBytes() { return g_live_bytes; }

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

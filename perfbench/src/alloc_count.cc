// Kept in its own translation unit: inlined next to container code, GCC
// mistakes the malloc/free pairing below for a mismatched new/delete.
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

uint64_t perfbench::AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

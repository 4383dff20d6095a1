// Arena: the shard-local allocator under the engine's per-peer containers.
// The properties that matter are the ones the data plane leans on: class
// rounding and 16-byte alignment (SmallVector stores arbitrary T), free-list
// recycling (spill buffers double, so freed ones must be reused verbatim),
// Reserve actually pre-sizing the bump space without touching its pages, and
// the SmallVector binding rules (spill into the arena, buffer provenance
// across set_arena/move/copy).
#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/small_vector.h"

// Sanitizer runtimes manage (and may pre-touch) heap pages themselves, so
// resident-set checks only mean something in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LOCAWARE_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LOCAWARE_SANITIZED_BUILD 1
#endif
#endif

namespace locaware {
namespace {

/// Resident set size in bytes from /proc/self/status, 0 where unavailable.
[[maybe_unused]] int64_t ResidentBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  common::Arena arena;
  std::vector<std::pair<unsigned char*, size_t>> chunks;
  for (size_t bytes : {1u, 7u, 16u, 24u, 100u, 4096u}) {
    auto* p = static_cast<unsigned char*>(arena.Allocate(bytes));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u) << bytes;
    std::memset(p, 0xAB, bytes);  // ASan/valgrind would flag overlap
    chunks.emplace_back(p, bytes);
  }
  for (size_t i = 0; i < chunks.size(); ++i) {
    for (size_t j = i + 1; j < chunks.size(); ++j) {
      const bool disjoint = chunks[i].first + chunks[i].second <= chunks[j].first ||
                            chunks[j].first + chunks[j].second <= chunks[i].first;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(ArenaTest, DeallocateRecyclesSameSizeClass) {
  common::Arena arena;
  void* a = arena.Allocate(48);  // class 64
  arena.Deallocate(a, 48);
  // Any request that rounds to the same class must pop the freed chunk.
  void* b = arena.Allocate(64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.freelist_hits(), 1u);
  // A different class must not.
  arena.Deallocate(b, 64);
  void* c = arena.Allocate(128);
  EXPECT_NE(b, c);
  EXPECT_EQ(arena.freelist_hits(), 1u);
}

TEST(ArenaTest, FreeListIsLifoPerClass) {
  common::Arena arena;
  void* a = arena.Allocate(32);
  void* b = arena.Allocate(32);
  arena.Deallocate(a, 32);
  arena.Deallocate(b, 32);
  EXPECT_EQ(arena.Allocate(32), b);
  EXPECT_EQ(arena.Allocate(32), a);
}

TEST(ArenaTest, ReservePreSizesOneBlock) {
  common::Arena arena;
  arena.Reserve(1 << 20);
  EXPECT_EQ(arena.num_blocks(), 1u);
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
  // A megabyte of small allocations fits without growing.
  for (int i = 0; i < (1 << 20) / 64; ++i) arena.Allocate(64);
  EXPECT_EQ(arena.num_blocks(), 1u);
}

TEST(ArenaTest, ReserveDoesNotTouchPages) {
  // Blocks are allocated uninitialized: a reservation costs address space,
  // and only pages that carved chunks write become resident.
#if !defined(__linux__) || defined(LOCAWARE_SANITIZED_BUILD)
  GTEST_SKIP() << "needs /proc/self/status and an unsanitized allocator";
#else
  const int64_t before = ResidentBytes();
  ASSERT_GT(before, 0);
  common::Arena arena;
  arena.Reserve(size_t{64} << 20);
  EXPECT_GE(arena.bytes_reserved(), size_t{64} << 20);
  EXPECT_LT(ResidentBytes() - before, int64_t{8} << 20);
#endif
}

TEST(ArenaTest, BlocksGrowGeometrically) {
  common::Arena arena;
  // Outgrow the 64KB default block repeatedly: each new block at least
  // doubles, so even a 16MB total settles in O(log n) blocks.
  for (int i = 0; i < (16 << 20) / 4096; ++i) arena.Allocate(4096);
  EXPECT_GE(arena.bytes_reserved(), size_t{16} << 20);
  EXPECT_LE(arena.num_blocks(), 10u);
}

TEST(ArenaSmallVectorTest, SpillDrawsFromArenaAndOutgrownBuffersRecycle) {
  common::Arena arena;
  SmallVector<uint32_t, 2> a;
  a.set_arena(&arena);
  a.push_back(1);
  a.push_back(2);
  EXPECT_TRUE(a.is_inline());
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Growing 2 -> 4 -> 8 spills into the arena and frees the outgrown
  // 4-slot (16-byte, one size class) buffer back to it.
  for (uint32_t i = 3; i <= 8; ++i) a.push_back(i);
  EXPECT_FALSE(a.is_inline());
  EXPECT_GT(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.freelist_hits(), 0u);
  // Doubling keeps every freed buffer exactly class-sized, so a sibling
  // vector's first spill (also 4 slots) must recycle it verbatim.
  SmallVector<uint32_t, 2> b;
  b.set_arena(&arena);
  for (uint32_t i = 0; i < 3; ++i) b.push_back(i);
  EXPECT_EQ(arena.freelist_hits(), 1u);
  for (uint32_t i = 1; i <= 8; ++i) EXPECT_EQ(a[i - 1], i);
}

TEST(ArenaSmallVectorTest, SetArenaMigratesASpilledBuffer) {
  // Binding an arena after the vector already spilled to ::operator new must
  // move the buffer into the arena — the destructor will Deallocate into
  // whatever arena_ holds, so provenance and binding must always agree.
  common::Arena arena;
  SmallVector<uint32_t, 2> v;
  for (uint32_t i = 0; i < 16; ++i) v.push_back(i);
  EXPECT_FALSE(v.is_inline());
  v.set_arena(&arena);
  EXPECT_GT(arena.bytes_allocated(), 0u);
  for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(v[i], i);
  v.push_back(16);
  EXPECT_EQ(v.size(), 17u);
}

TEST(ArenaSmallVectorTest, MoveCarriesTheSourceArenaWithTheBuffer) {
  common::Arena arena;
  SmallVector<uint32_t, 2> src;
  src.set_arena(&arena);
  for (uint32_t i = 0; i < 8; ++i) src.push_back(i);
  const size_t allocated = arena.bytes_allocated();
  SmallVector<uint32_t, 2> dst(std::move(src));
  // The buffer moved wholesale; the destination must inherit its owner.
  EXPECT_EQ(dst.arena(), &arena);
  EXPECT_EQ(arena.bytes_allocated(), allocated);
  ASSERT_EQ(dst.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(dst[i], i);
}

TEST(ArenaSmallVectorTest, CopyDoesNotInheritTheSourceArena) {
  common::Arena arena;
  SmallVector<uint32_t, 2> src;
  src.set_arena(&arena);
  for (uint32_t i = 0; i < 8; ++i) src.push_back(i);
  SmallVector<uint32_t, 2> copy(src);
  // A copy allocates its own buffer, so it keeps its own (null) binding.
  EXPECT_EQ(copy.arena(), nullptr);
  ASSERT_EQ(copy.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(copy[i], i);
  copy.push_back(8);
  EXPECT_EQ(src.size(), 8u);
}

TEST(ArenaSmallVectorTest, ClearKeepsCapacityForReuse) {
  // GoOffline clears adjacency rows but peers rejoin: the arena-owned
  // capacity must survive the clear and absorb the re-fill allocation-free.
  common::Arena arena;
  SmallVector<uint32_t, 2> v;
  v.set_arena(&arena);
  for (uint32_t i = 0; i < 32; ++i) v.push_back(i);
  const size_t allocated = arena.bytes_allocated();
  v.clear();
  EXPECT_TRUE(v.empty());
  for (uint32_t i = 0; i < 32; ++i) v.push_back(i);
  EXPECT_EQ(arena.bytes_allocated(), allocated);
}

}  // namespace
}  // namespace locaware

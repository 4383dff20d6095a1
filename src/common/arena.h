// Shard-local bump allocator with size-class recycling.
//
// The parallel engine's hot per-peer state — overlay adjacency rows,
// NodeState file stores, ResponseIndex keyword/provider/posting spill
// buffers — is thousands of small vectors whose heap blocks the global
// allocator scatters across the address space and serializes behind a
// process-wide lock. An Arena replaces that with shard-private storage:
// the Engine creates one per shard at startup, sized from the peer->shard
// map, and every arena-aware container owned by a shard's peers draws its
// spill buffers from that shard's arena. Allocation locality then matches
// execution locality (the placement-aware scheduler runs a shard's events
// on one worker), and the storm path touches the global heap zero times.
//
// Design:
//  * Bump allocation from geometrically sized blocks. Requests are rounded
//    up to a power-of-two size class (min 16 bytes), carved from the
//    current block, or given a dedicated block when oversized.
//  * Power-of-two free lists. Deallocate(ptr, bytes) pushes the chunk onto
//    its class's intrusive free list; the next same-class Allocate pops it.
//    SmallVector growth doubles capacity, so freed spill buffers are
//    exactly class-sized and recycling hits every time.
//  * No per-chunk headers. The caller passes the allocation size back to
//    Deallocate (containers know their capacity), so chunks cost zero
//    bookkeeping bytes.
//  * Wholesale release. The destructor frees the blocks; nothing else ever
//    returns memory to the OS.
//  * Untouched until carved. Blocks are allocated uninitialized (callers
//    initialize what they carve: FlatMap clears its own metadata, and a
//    recycled chunk was never zero anyway), so reserved-but-unused block
//    space never becomes resident.
//
// Thread safety: none. Correctness comes from the shard-ownership
// discipline — all allocations for peer p happen inside events executing
// on p's shard, and the engine keeps one arena per shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace locaware::common {

/// \brief Bump-pointer block allocator with power-of-two recycling lists.
class Arena {
 public:
  Arena() = default;
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned for any object type the repo's
  /// containers hold (16 bytes). Rounded up to the next power-of-two size
  /// class; never returns nullptr (CHECK-fails on allocation failure).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Returns a chunk previously obtained from Allocate(bytes, ...) to its
  /// size-class free list for reuse. The memory stays owned by the arena.
  void Deallocate(void* ptr, size_t bytes);

  /// Ensures at least `bytes` of contiguous bump capacity, allocating one
  /// block up front. Blocks are not zero-filled, so a reservation costs
  /// address space, not resident memory: a page becomes resident only when
  /// a chunk carved from it is written. The engine reserves a per-shard
  /// estimate at startup so early growth carves from one block.
  void Reserve(size_t bytes);

  /// Observability for tests and bench counters.
  size_t num_blocks() const { return blocks_.size(); }
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Cumulative bytes handed out (class-rounded), including recycled ones.
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Allocations served from a free list instead of fresh bump space.
  size_t freelist_hits() const { return freelist_hits_; }

 private:
  /// Chunks are at least 16 bytes so a freed one can hold the intrusive
  /// free-list link, and so every chunk boundary keeps 16-byte alignment.
  static constexpr size_t kMinClassBytes = 16;
  static constexpr size_t kNumClasses = 48;  // classes 2^4 .. 2^51
  static constexpr size_t kDefaultBlockBytes = size_t{1} << 16;

  struct FreeNode {
    FreeNode* next;
  };

  struct Block {
    std::unique_ptr<unsigned char[]> data;
    size_t size = 0;
  };

  /// Smallest class index whose chunk size holds `bytes`.
  static unsigned ClassOf(size_t bytes);
  static size_t ClassBytes(unsigned cls) { return kMinClassBytes << cls; }

  /// Bump-carves `bytes` (a class size) from the current block, starting a
  /// new block when the remainder is too small.
  void* BumpAllocate(size_t bytes);
  void NewBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  unsigned char* bump_ = nullptr;  ///< next free byte in the current block
  size_t bump_left_ = 0;           ///< bytes remaining in the current block
  FreeNode* free_lists_[kNumClasses] = {};

  size_t bytes_reserved_ = 0;
  size_t bytes_allocated_ = 0;
  size_t freelist_hits_ = 0;
};

}  // namespace locaware::common

#include "common/arena.h"

#include <cstring>

#include "common/check.h"

namespace locaware::common {

unsigned Arena::ClassOf(size_t bytes) {
  size_t chunk = kMinClassBytes;
  unsigned cls = 0;
  while (chunk < bytes) {
    chunk <<= 1;
    ++cls;
  }
  LOCAWARE_CHECK_LT(cls, kNumClasses) << "arena allocation too large: " << bytes;
  return cls;
}

void* Arena::Allocate(size_t bytes, size_t align) {
  LOCAWARE_CHECK_LE(align, kMinClassBytes)
      << "arena alignment above 16 is unsupported";
  if (bytes == 0) bytes = 1;
  const unsigned cls = ClassOf(bytes);
  const size_t chunk = ClassBytes(cls);
  bytes_allocated_ += chunk;
  if (FreeNode* node = free_lists_[cls]; node != nullptr) {
    free_lists_[cls] = node->next;
    ++freelist_hits_;
    return node;
  }
  return BumpAllocate(chunk);
}

void Arena::Deallocate(void* ptr, size_t bytes) {
  if (ptr == nullptr) return;
  if (bytes == 0) bytes = 1;
  const unsigned cls = ClassOf(bytes);
  FreeNode* node = static_cast<FreeNode*>(ptr);
  node->next = free_lists_[cls];
  free_lists_[cls] = node;
}

void Arena::Reserve(size_t bytes) {
  if (bytes <= bump_left_) return;
  NewBlock(bytes);
}

void* Arena::BumpAllocate(size_t bytes) {
  if (bump_left_ < bytes) NewBlock(bytes);
  unsigned char* out = bump_;
  bump_ += bytes;
  bump_left_ -= bytes;
  return out;
}

void Arena::NewBlock(size_t min_bytes) {
  // Geometric growth: each block at least doubles the previous one, so a
  // shard that outgrows its initial reservation settles in O(log n) blocks.
  size_t size = kDefaultBlockBytes;
  if (!blocks_.empty()) size = blocks_.back().size * 2;
  if (size < min_bytes) size = min_bytes;
  Block block;
  block.data = std::make_unique_for_overwrite<unsigned char[]>(size);
  block.size = size;
  // The abandoned tail of the previous block (< min_bytes) is forfeited;
  // bounded waste in exchange for contiguous chunks.
  bump_ = block.data.get();
  bump_left_ = size;
  bytes_reserved_ += size;
  blocks_.push_back(std::move(block));
}

}  // namespace locaware::common

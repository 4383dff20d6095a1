#include "bloom/bloom_delta.h"

#include <bit>

#include "common/check.h"

namespace locaware::bloom {

Status ApplyDelta(uint32_t filter_bits, std::span<const uint32_t> positions,
                  BloomFilter* filter) {
  if (filter_bits != filter->num_bits()) {
    return Status::InvalidArgument("delta filter width mismatch");
  }
  for (uint32_t pos : positions) {
    if (pos >= filter->num_bits()) {
      return Status::InvalidArgument("delta position out of range");
    }
  }
  for (uint32_t pos : positions) filter->ToggleBit(pos);
  return Status::OK();
}

size_t PositionBits(size_t filter_bits) {
  LOCAWARE_CHECK_GT(filter_bits, 0u);
  return static_cast<size_t>(std::bit_width(filter_bits - 1));
}

size_t WireSizeBits(size_t filter_bits, size_t num_positions) {
  return 16 + num_positions * PositionBits(filter_bits);
}

}  // namespace locaware::bloom

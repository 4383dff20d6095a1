// Counting Bloom filter (Fan et al., "Summary Cache", SIGCOMM 1998 — the
// paper's reference [8]). A plain Bloom filter cannot delete, but Locaware's
// response index evicts filenames constantly ("built incrementally as new
// filenames are inserted in RI and existing ones discarded", §4.2). Each peer
// therefore keeps a *counting* filter locally and exports its plain projection
// (counter > 0 → bit set) for neighbors.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"

namespace locaware::bloom {

/// \brief Bloom filter with 4-bit counters supporting deletion.
///
/// Counters are packed two per byte (Summary Cache's 4-bit counters: an
/// m-bit filter stores m/2 bytes). Counters saturate at 15 (and once
/// saturated are never decremented, the standard safety rule: a saturated
/// counter may be shared by more keys than it can count, so decrementing
/// could introduce false negatives). The plain projection is not stored; it
/// is derived from the counters when asked for.
class CountingBloomFilter {
 public:
  /// Same shape parameters as the plain filter it projects to.
  CountingBloomFilter(size_t num_bits, size_t num_hashes);

  /// Increments the key's counters.
  void Insert(std::string_view key);
  void Insert(const KeyHash128& key);

  /// Decrements the key's counters. Removing a key that was never inserted is
  /// a caller bug; it is CHECK-detected when a counter would underflow.
  void Remove(std::string_view key);
  void Remove(const KeyHash128& key);

  /// Membership test (same semantics as BloomFilter::MayContain).
  bool MayContain(std::string_view key) const;
  bool MayContain(const KeyHash128& key) const;

  void Clear();

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return num_hashes_; }
  uint8_t CounterAt(size_t pos) const;
  /// Number of saturated (=15) counters; a quality signal for sizing.
  size_t SaturatedCount() const;

  /// The plain 1-bit projection that is gossiped to neighbors, derived from
  /// the counters in O(m).
  BloomFilter projection() const;

  /// Brings `advertised` up to the current projection and returns the
  /// positions it toggled, ascending: the payload of an incremental update
  /// (§4.2 footnote 1). `advertised` must be the one filter every sync goes
  /// into (empty before the first): when no counter crossed zero since the
  /// last sync it already equals the projection, and the call is O(1)
  /// instead of O(m). CHECK-fails on shape mismatch.
  std::vector<uint32_t> SyncProjection(BloomFilter* advertised);

 private:
  static constexpr uint8_t kMaxCount = 15;

  uint8_t Counter(size_t pos) const {
    return (counters_[pos / 2] >> (4 * (pos % 2))) & 0x0F;
  }
  /// Projection bits [64w, 64w + 64) as one word.
  uint64_t ProjectionWord(size_t w) const;

  std::unique_ptr<uint8_t[]> counters_;  ///< counter p in nibble p % 2 of byte p / 2
  uint32_t num_bits_;
  uint16_t num_hashes_;
  /// Some counter crossed zero (the projection moved) since the last sync.
  bool unsynced_ = false;
};

}  // namespace locaware::bloom

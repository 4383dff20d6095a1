// Plain Bloom filter (Bloom 1970), the structure each Locaware peer gossips
// to its neighbors to summarize the keywords of its cached filenames
// (paper §4.2). Membership answers have no false negatives; false positives
// cost only a wasted query forward.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace locaware::bloom {

/// The i-th probe position of a key in an m-bit filter — the single
/// definition of the Kirsch–Mitzenmacher indexing rule. Every insert/lookup
/// path (plain and counting) goes through it, so the bit and counter layouts
/// can never diverge.
inline uint32_t ProbePosition(const KeyHash128& key, size_t i, size_t num_bits) {
  return static_cast<uint32_t>((key.h1 + i * key.h2) % num_bits);
}

/// \brief Fixed-size Bloom filter over byte strings.
///
/// Uses Kirsch–Mitzenmacher double hashing: the i-th probe position is
/// (h1 + i*h2) mod m with (h1, h2) the two halves of one 128-bit Murmur3
/// pass — k index computations from a single hash of the key.
///
/// A filter is its words plus a 4+4-byte shape (16 bytes inline, one heap
/// block of ceil(m/64) words): every Locaware peer holds one copy per
/// neighbor, so the header is paid once per overlay half-link.
class BloomFilter {
 public:
  /// \param num_bits   filter width m (> 0). The paper uses 1200 bits.
  /// \param num_hashes probe count k (1..16). k = 4 ≈ optimal for the
  ///                    paper's ~150 keywords in 1200 bits (m/n ≈ 8 → k ≈ 5.5;
  ///                    4 keeps updates sparse).
  BloomFilter(size_t num_bits, size_t num_hashes);

  BloomFilter(const BloomFilter& other);
  BloomFilter& operator=(const BloomFilter& other);
  BloomFilter(BloomFilter&&) noexcept = default;
  BloomFilter& operator=(BloomFilter&&) noexcept = default;

  /// Inserts a key.
  void Insert(std::string_view key);

  /// Inserts a key by its precomputed hash (the id-plane fast path; see
  /// BloomKeyHash for the equivalence with the string overload).
  void Insert(const KeyHash128& key);

  /// Membership test: false means definitely absent; true means present with
  /// probability 1 − fp-rate.
  bool MayContain(std::string_view key) const;

  /// Membership test on a precomputed hash.
  bool MayContain(const KeyHash128& key) const;

  /// Zeroes the filter.
  void Clear();

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return num_hashes_; }

  /// Number of set bits.
  size_t CountOnes() const;
  /// Fraction of set bits in [0, 1].
  double FillRatio() const;
  /// (fill_ratio)^k — the classic false-positive estimate at the current fill.
  double EstimatedFpRate() const;

  // --- bit-level access (delta propagation, tests) ---
  bool TestBit(size_t pos) const;
  void SetBit(size_t pos);
  void ClearBit(size_t pos);
  void ToggleBit(size_t pos);

  /// Positions where this filter and `other` differ. CHECK-fails on shape
  /// mismatch. This is the payload of an incremental neighbor update.
  std::vector<uint32_t> DiffPositions(const BloomFilter& other) const;

  /// The k probe positions for a key (exposed so tests can mirror the
  /// indexing).
  std::vector<uint32_t> ProbePositions(std::string_view key) const;
  std::vector<uint32_t> ProbePositions(const KeyHash128& key) const;

  bool operator==(const BloomFilter& other) const;

  /// Debug rendering "m=1200 k=4 ones=87 fill=7.3%".
  std::string Describe() const;

 private:
  // The counting filter derives its projection straight into these words.
  friend class CountingBloomFilter;

  size_t num_words() const { return (num_bits_ + 63) / 64; }

  std::unique_ptr<uint64_t[]> words_;
  uint32_t num_bits_;
  uint32_t num_hashes_;
};

/// Optimal k for a filter of m bits expected to hold n keys: round(m/n · ln 2).
size_t OptimalNumHashes(size_t num_bits, size_t expected_keys);

}  // namespace locaware::bloom

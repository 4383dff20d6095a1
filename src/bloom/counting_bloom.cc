#include "bloom/counting_bloom.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"

namespace locaware::bloom {
namespace {

/// Bit i of the result is set iff nibble i of `x` is nonzero (16 nibbles in,
/// 16 bits out).
uint64_t NonzeroNibbleMask(uint64_t x) {
  x |= x >> 1;
  x |= x >> 2;
  x &= 0x1111111111111111ULL;  // bit 4i: nibble i is nonzero
  // Pack the stride-4 bits together, doubling the run length each step.
  x = (x | (x >> 3)) & 0x0303030303030303ULL;
  x = (x | (x >> 6)) & 0x000F000F000F000FULL;
  x = (x | (x >> 12)) & 0x000000FF000000FFULL;
  return (x | (x >> 24)) & 0xFFFFULL;
}

}  // namespace

CountingBloomFilter::CountingBloomFilter(size_t num_bits, size_t num_hashes)
    : num_bits_(static_cast<uint32_t>(num_bits)),
      num_hashes_(static_cast<uint16_t>(num_hashes)) {
  LOCAWARE_CHECK_GT(num_bits, 0u);
  LOCAWARE_CHECK_LE(num_bits, std::numeric_limits<uint32_t>::max());
  LOCAWARE_CHECK_GE(num_hashes, 1u);
  LOCAWARE_CHECK_LE(num_hashes, 16u);
  counters_ = std::make_unique<uint8_t[]>((num_bits + 1) / 2);
}

void CountingBloomFilter::Insert(std::string_view key) { Insert(BloomKeyHash(key)); }

void CountingBloomFilter::Insert(const KeyHash128& key) {
  for (size_t i = 0; i < num_hashes_; ++i) {
    const uint32_t pos = ProbePosition(key, i, num_bits_);
    const uint8_t c = Counter(pos);
    if (c == 0) unsynced_ = true;
    if (c < kMaxCount) counters_[pos / 2] += uint8_t{1} << (4 * (pos % 2));
  }
}

void CountingBloomFilter::Remove(std::string_view key) { Remove(BloomKeyHash(key)); }

void CountingBloomFilter::Remove(const KeyHash128& key) {
  for (size_t i = 0; i < num_hashes_; ++i) {
    const uint32_t pos = ProbePosition(key, i, num_bits_);
    const uint8_t c = Counter(pos);
    LOCAWARE_CHECK_GT(c, 0u) << "Remove of never-inserted key (counter underflow)";
    if (c < kMaxCount) {  // saturated counters stay pinned
      counters_[pos / 2] -= uint8_t{1} << (4 * (pos % 2));
      if (c == 1) unsynced_ = true;
    }
  }
}

bool CountingBloomFilter::MayContain(std::string_view key) const {
  return MayContain(BloomKeyHash(key));
}

bool CountingBloomFilter::MayContain(const KeyHash128& key) const {
  for (size_t i = 0; i < num_hashes_; ++i) {
    if (Counter(ProbePosition(key, i, num_bits_)) == 0) return false;
  }
  return true;
}

void CountingBloomFilter::Clear() {
  std::fill_n(counters_.get(), (num_bits_ + 1) / 2, uint8_t{0});
  unsynced_ = true;
}

uint8_t CountingBloomFilter::CounterAt(size_t pos) const {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  return Counter(pos);
}

size_t CountingBloomFilter::SaturatedCount() const {
  size_t n = 0;
  for (size_t pos = 0; pos < num_bits_; ++pos) n += (Counter(pos) == kMaxCount);
  return n;
}

uint64_t CountingBloomFilter::ProjectionWord(size_t w) const {
  // Word w covers counter bytes [32w, 32w + 32): four 8-byte chunks of 16
  // counters each. An odd m leaves the last byte's high nibble unused (always
  // zero), so no bit at or past m is ever set.
  const size_t num_bytes = (num_bits_ + 1) / 2;
  uint64_t word = 0;
  for (size_t chunk = 0; chunk < 4; ++chunk) {
    const size_t start = 32 * w + 8 * chunk;
    if (start >= num_bytes) break;
    const size_t len = std::min<size_t>(8, num_bytes - start);
    uint64_t nibbles = 0;
    for (size_t b = 0; b < len; ++b) {
      nibbles |= static_cast<uint64_t>(counters_[start + b]) << (8 * b);
    }
    word |= NonzeroNibbleMask(nibbles) << (16 * chunk);
  }
  return word;
}

BloomFilter CountingBloomFilter::projection() const {
  BloomFilter out(num_bits_, num_hashes_);
  for (size_t w = 0; w < out.num_words(); ++w) out.words_[w] = ProjectionWord(w);
  return out;
}

std::vector<uint32_t> CountingBloomFilter::SyncProjection(BloomFilter* advertised) {
  LOCAWARE_CHECK_EQ(advertised->num_bits(), num_bits()) << "filter width mismatch";
  std::vector<uint32_t> toggled;
  if (!unsynced_) return toggled;
  unsynced_ = false;
  for (size_t w = 0; w < advertised->num_words(); ++w) {
    uint64_t diff = ProjectionWord(w) ^ advertised->words_[w];
    advertised->words_[w] ^= diff;
    while (diff != 0) {
      toggled.push_back(static_cast<uint32_t>(w * 64 + std::countr_zero(diff)));
      diff &= diff - 1;
    }
  }
  return toggled;
}

}  // namespace locaware::bloom

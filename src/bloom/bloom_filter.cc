#include "bloom/bloom_filter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/hash.h"

namespace locaware::bloom {

BloomFilter::BloomFilter(size_t num_bits, size_t num_hashes)
    : num_bits_(static_cast<uint32_t>(num_bits)),
      num_hashes_(static_cast<uint32_t>(num_hashes)) {
  LOCAWARE_CHECK_GT(num_bits, 0u);
  LOCAWARE_CHECK_LE(num_bits, std::numeric_limits<uint32_t>::max());
  LOCAWARE_CHECK_GE(num_hashes, 1u);
  LOCAWARE_CHECK_LE(num_hashes, 16u);
  words_ = std::make_unique<uint64_t[]>(num_words());
}

BloomFilter::BloomFilter(const BloomFilter& other)
    : words_(std::make_unique_for_overwrite<uint64_t[]>(other.num_words())),
      num_bits_(other.num_bits_),
      num_hashes_(other.num_hashes_) {
  std::memcpy(words_.get(), other.words_.get(), num_words() * sizeof(uint64_t));
}

BloomFilter& BloomFilter::operator=(const BloomFilter& other) {
  if (this == &other) return *this;
  // Same-shape assignment (every in-engine copy) reuses the buffer.
  if (words_ == nullptr || num_words() != other.num_words()) {
    words_ = std::make_unique_for_overwrite<uint64_t[]>(other.num_words());
  }
  num_bits_ = other.num_bits_;
  num_hashes_ = other.num_hashes_;
  std::memcpy(words_.get(), other.words_.get(), num_words() * sizeof(uint64_t));
  return *this;
}

bool BloomFilter::operator==(const BloomFilter& other) const {
  return num_bits_ == other.num_bits_ && num_hashes_ == other.num_hashes_ &&
         std::equal(words_.get(), words_.get() + num_words(), other.words_.get());
}

std::vector<uint32_t> BloomFilter::ProbePositions(std::string_view key) const {
  return ProbePositions(BloomKeyHash(key));
}

std::vector<uint32_t> BloomFilter::ProbePositions(const KeyHash128& key) const {
  std::vector<uint32_t> positions(num_hashes_);
  for (size_t i = 0; i < num_hashes_; ++i) {
    positions[i] = ProbePosition(key, i, num_bits_);
  }
  return positions;
}

void BloomFilter::Insert(std::string_view key) { Insert(BloomKeyHash(key)); }

void BloomFilter::Insert(const KeyHash128& key) {
  for (size_t i = 0; i < num_hashes_; ++i) {
    SetBit(ProbePosition(key, i, num_bits_));
  }
}

bool BloomFilter::MayContain(std::string_view key) const {
  return MayContain(BloomKeyHash(key));
}

bool BloomFilter::MayContain(const KeyHash128& key) const {
  for (size_t i = 0; i < num_hashes_; ++i) {
    if (!TestBit(ProbePosition(key, i, num_bits_))) return false;
  }
  return true;
}

void BloomFilter::Clear() { std::fill_n(words_.get(), num_words(), 0); }

size_t BloomFilter::CountOnes() const {
  size_t ones = 0;
  for (size_t w = 0; w < num_words(); ++w) {
    ones += static_cast<size_t>(std::popcount(words_[w]));
  }
  return ones;
}

double BloomFilter::FillRatio() const {
  return static_cast<double>(CountOnes()) / static_cast<double>(num_bits_);
}

double BloomFilter::EstimatedFpRate() const {
  return std::pow(FillRatio(), static_cast<double>(num_hashes_));
}

bool BloomFilter::TestBit(size_t pos) const {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  return (words_[pos / 64] >> (pos % 64)) & 1u;
}

void BloomFilter::SetBit(size_t pos) {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  words_[pos / 64] |= uint64_t{1} << (pos % 64);
}

void BloomFilter::ClearBit(size_t pos) {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  words_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
}

void BloomFilter::ToggleBit(size_t pos) {
  LOCAWARE_CHECK_LT(pos, num_bits_);
  words_[pos / 64] ^= uint64_t{1} << (pos % 64);
}

std::vector<uint32_t> BloomFilter::DiffPositions(const BloomFilter& other) const {
  LOCAWARE_CHECK_EQ(num_bits_, other.num_bits_) << "filter width mismatch";
  std::vector<uint32_t> diff;
  for (size_t w = 0; w < num_words(); ++w) {
    uint64_t x = words_[w] ^ other.words_[w];
    while (x != 0) {
      const int bit = std::countr_zero(x);
      diff.push_back(static_cast<uint32_t>(w * 64 + bit));
      x &= x - 1;
    }
  }
  return diff;
}

std::string BloomFilter::Describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "m=%zu k=%zu ones=%zu fill=%.1f%%", num_bits(),
                num_hashes(), CountOnes(), FillRatio() * 100.0);
  return buf;
}

size_t OptimalNumHashes(size_t num_bits, size_t expected_keys) {
  LOCAWARE_CHECK_GT(expected_keys, 0u);
  const double k =
      std::round(static_cast<double>(num_bits) / static_cast<double>(expected_keys) *
                 std::log(2.0));
  if (k < 1) return 1;
  if (k > 16) return 16;
  return static_cast<size_t>(k);
}

}  // namespace locaware::bloom

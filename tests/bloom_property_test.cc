// Randomized property tests for the Bloom subsystem, model-checked against
// exact reference containers. These complement bloom_test.cc's example-based
// cases with thousands of randomized operations per configuration.
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_delta.h"
#include "bloom/bloom_filter.h"
#include "bloom/counting_bloom.h"
#include "common/rng.h"

namespace locaware::bloom {
namespace {

struct FilterShape {
  size_t bits;
  size_t hashes;
  uint64_t seed;
};

class BloomPropertyTest : public ::testing::TestWithParam<FilterShape> {};

/// Property: a plain filter never produces a false negative, whatever the
/// shape and insertion history.
TEST_P(BloomPropertyTest, NeverForgetsInsertedKeys) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed);
  BloomFilter bf(bits, hashes);
  std::set<std::string> inserted;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(rng.UniformInt(0, 5000));
    if (rng.Bernoulli(0.7)) {
      bf.Insert(key);
      inserted.insert(key);
    }
    // Every previously inserted key must still test positive.
    if (i % 50 == 0) {
      for (const std::string& k : inserted) {
        ASSERT_TRUE(bf.MayContain(k)) << k << " lost at step " << i;
      }
    }
  }
}

/// Property: the counting filter agrees with an exact multiset on
/// no-false-negatives, under interleaved inserts and removes.
TEST_P(BloomPropertyTest, CountingFilterTracksMultiset) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed ^ 0xabcdef);
  CountingBloomFilter cbf(bits, hashes);
  std::map<std::string, int> reference;
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "key" + std::to_string(rng.UniformInt(0, 60));
    if (rng.Bernoulli(0.55)) {
      cbf.Insert(key);
      ++reference[key];
    } else {
      auto it = reference.find(key);
      if (it != reference.end() && it->second > 0) {
        cbf.Remove(key);
        if (--it->second == 0) reference.erase(it);
      }
    }
    // No false negatives: everything with count > 0 must be reported.
    if (i % 100 == 0) {
      for (const auto& [k, count] : reference) {
        ASSERT_TRUE(cbf.MayContain(k)) << k << " lost at step " << i;
      }
    }
  }
  // Draining everything leaves the projection empty unless counters
  // saturated (possible only for the tiny shapes).
  for (auto& [k, count] : reference) {
    for (int c = 0; c < count; ++c) cbf.Remove(k);
  }
  if (cbf.SaturatedCount() == 0) {
    EXPECT_EQ(cbf.projection().CountOnes(), 0u);
  }
}

/// Property: delta-sync keeps a mirrored filter bit-identical through an
/// arbitrary insert/evict history (the gossip correctness argument), on the
/// live path: SyncProjection at the sender, ApplyDelta at the neighbor.
TEST_P(BloomPropertyTest, DeltaSyncNeverDiverges) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed ^ 0x77);
  CountingBloomFilter source(bits, hashes);
  BloomFilter advertised(bits, hashes);  // last state sent
  BloomFilter mirror(bits, hashes);      // the neighbor's copy
  std::vector<std::string> held;         // inserted and not yet evicted
  for (int round = 0; round < 60; ++round) {
    // Insert and evict arbitrarily, as the response index does.
    const int mutations = static_cast<int>(rng.UniformInt(0, 5));
    for (int m = 0; m < mutations; ++m) {
      if (held.empty() || rng.Bernoulli(0.6)) {
        held.push_back("w" + std::to_string(rng.UniformInt(0, 500)));
        source.Insert(held.back());
      } else {
        const size_t victim = rng.UniformInt(0, held.size() - 1);
        source.Remove(held[victim]);
        held[victim] = held.back();
        held.pop_back();
      }
    }
    // Gossip tick: sync the advertised copy, apply its positions at the mirror.
    const std::vector<uint32_t> positions = source.SyncProjection(&advertised);
    ASSERT_TRUE(ApplyDelta(static_cast<uint32_t>(bits), positions, &mirror).ok());
    ASSERT_EQ(advertised, source.projection());
    ASSERT_EQ(mirror, advertised) << "diverged at round " << round;
  }
}

/// Property: fill ratio is monotone in insertions and the fp estimate stays
/// a probability.
TEST_P(BloomPropertyTest, FillMonotoneAndFpBounded) {
  const auto [bits, hashes, seed] = GetParam();
  Rng rng(seed ^ 0x1234);
  BloomFilter bf(bits, hashes);
  double last_fill = 0.0;
  for (int i = 0; i < 300; ++i) {
    bf.Insert("x" + std::to_string(rng.UniformInt(0, 100000)));
    const double fill = bf.FillRatio();
    ASSERT_GE(fill, last_fill);
    ASSERT_LE(fill, 1.0);
    const double fp = bf.EstimatedFpRate();
    ASSERT_GE(fp, 0.0);
    ASSERT_LE(fp, 1.0);
    last_fill = fill;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BloomPropertyTest,
                         ::testing::Values(FilterShape{64, 1, 1},
                                           FilterShape{256, 2, 2},
                                           FilterShape{1200, 4, 3},
                                           FilterShape{1200, 4, 4},
                                           FilterShape{4096, 8, 5},
                                           FilterShape{100, 3, 6}),
                         [](const auto& info) {
                           return "b" + std::to_string(info.param.bits) + "k" +
                                  std::to_string(info.param.hashes) + "s" +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace locaware::bloom

#include "bloom/bloom_filter.h"

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bloom/bloom_delta.h"
#include "bloom/counting_bloom.h"
#include "common/rng.h"

namespace locaware::bloom {
namespace {

std::vector<std::string> MakeKeys(size_t n, const std::string& prefix = "kw") {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(prefix + std::to_string(i));
  return keys;
}

TEST(BloomFilterTest, StartsEmpty) {
  BloomFilter bf(1200, 4);
  EXPECT_EQ(bf.CountOnes(), 0u);
  EXPECT_EQ(bf.FillRatio(), 0.0);
  EXPECT_FALSE(bf.MayContain("anything"));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  // The paper's core guarantee (§4.2): "it never returns false negatives".
  BloomFilter bf(1200, 4);
  const auto keys = MakeKeys(150);
  for (const auto& k : keys) bf.Insert(k);
  for (const auto& k : keys) EXPECT_TRUE(bf.MayContain(k)) << k;
}

TEST(BloomFilterTest, FalsePositiveRateNearTheory) {
  // 150 keys in 1200 bits with k=4: fill ≈ 1-(1-1/m)^(kn) ≈ 0.39,
  // fp ≈ 0.39^4 ≈ 2.4%. Accept up to ~2x that.
  BloomFilter bf(1200, 4);
  for (const auto& k : MakeKeys(150)) bf.Insert(k);
  int fp = 0;
  constexpr int kProbes = 20000;
  for (int i = 0; i < kProbes; ++i) {
    fp += bf.MayContain("absent" + std::to_string(i));
  }
  const double rate = static_cast<double>(fp) / kProbes;
  EXPECT_LT(rate, 0.05);
  EXPECT_GT(rate, 0.002);  // a filter this full is not fp-free
}

TEST(BloomFilterTest, EstimatedFpRateTracksFill) {
  BloomFilter bf(1200, 4);
  EXPECT_EQ(bf.EstimatedFpRate(), 0.0);
  for (const auto& k : MakeKeys(150)) bf.Insert(k);
  EXPECT_GT(bf.EstimatedFpRate(), 0.001);
  EXPECT_LT(bf.EstimatedFpRate(), 0.2);
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter bf(256, 3);
  bf.Insert("x");
  EXPECT_GT(bf.CountOnes(), 0u);
  bf.Clear();
  EXPECT_EQ(bf.CountOnes(), 0u);
  EXPECT_FALSE(bf.MayContain("x"));
}

TEST(BloomFilterTest, InsertIsIdempotentOnBits) {
  BloomFilter bf(512, 4);
  bf.Insert("same");
  const size_t ones = bf.CountOnes();
  bf.Insert("same");
  EXPECT_EQ(bf.CountOnes(), ones);
}

TEST(BloomFilterTest, BitOpsRoundTrip) {
  BloomFilter bf(100, 2);
  bf.SetBit(63);
  bf.SetBit(64);  // word boundary
  bf.SetBit(99);
  EXPECT_TRUE(bf.TestBit(63));
  EXPECT_TRUE(bf.TestBit(64));
  EXPECT_TRUE(bf.TestBit(99));
  bf.ClearBit(64);
  EXPECT_FALSE(bf.TestBit(64));
  bf.ToggleBit(64);
  EXPECT_TRUE(bf.TestBit(64));
  EXPECT_DEATH(bf.TestBit(100), "CHECK");
}

TEST(BloomFilterTest, ProbePositionsInRangeAndStable) {
  BloomFilter bf(1200, 4);
  const auto p1 = bf.ProbePositions("key");
  const auto p2 = bf.ProbePositions("key");
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.size(), 4u);
  for (uint32_t p : p1) EXPECT_LT(p, 1200u);
}

TEST(BloomFilterTest, DiffPositionsFindsExactDifferences) {
  BloomFilter a(256, 3), b(256, 3);
  b.SetBit(5);
  b.SetBit(64);
  b.SetBit(255);
  EXPECT_EQ(a.DiffPositions(b), (std::vector<uint32_t>{5, 64, 255}));
  EXPECT_TRUE(a.DiffPositions(a).empty());
}

TEST(BloomFilterTest, DiffRequiresSameShape) {
  BloomFilter a(256, 3), b(512, 3);
  EXPECT_DEATH(a.DiffPositions(b), "mismatch");
}

TEST(BloomFilterTest, EqualityOperator) {
  BloomFilter a(128, 2), b(128, 2);
  EXPECT_EQ(a, b);
  a.Insert("z");
  EXPECT_FALSE(a == b);
  b.Insert("z");
  EXPECT_EQ(a, b);
}

TEST(BloomFilterTest, InvalidShapesDie) {
  EXPECT_DEATH(BloomFilter(0, 4), "CHECK");
  EXPECT_DEATH(BloomFilter(100, 0), "CHECK");
  EXPECT_DEATH(BloomFilter(100, 17), "CHECK");
}

TEST(OptimalNumHashesTest, ClassicValues) {
  // m/n = 8 bits per key -> k = round(8 ln2) = 6.
  EXPECT_EQ(OptimalNumHashes(1200, 150), 6u);
  // Tiny filters clamp at 1, huge ratios clamp at 16.
  EXPECT_EQ(OptimalNumHashes(10, 100), 1u);
  EXPECT_EQ(OptimalNumHashes(100000, 10), 16u);
}

// --- CountingBloomFilter ---

TEST(CountingBloomTest, InsertThenRemoveRestoresEmpty) {
  CountingBloomFilter cbf(1200, 4);
  const auto keys = MakeKeys(50);
  for (const auto& k : keys) cbf.Insert(k);
  for (const auto& k : keys) EXPECT_TRUE(cbf.MayContain(k));
  for (const auto& k : keys) cbf.Remove(k);
  EXPECT_EQ(cbf.projection().CountOnes(), 0u);
}

TEST(CountingBloomTest, RemoveKeepsOtherKeys) {
  CountingBloomFilter cbf(1200, 4);
  cbf.Insert("keep");
  cbf.Insert("drop");
  cbf.Remove("drop");
  EXPECT_TRUE(cbf.MayContain("keep"));  // no false negative introduced
}

TEST(CountingBloomTest, SharedBitsSurviveSingleRemove) {
  // Insert the same key twice (two filenames sharing a keyword): one remove
  // must not clear it.
  CountingBloomFilter cbf(1200, 4);
  cbf.Insert("shared");
  cbf.Insert("shared");
  cbf.Remove("shared");
  EXPECT_TRUE(cbf.MayContain("shared"));
  cbf.Remove("shared");
  EXPECT_FALSE(cbf.MayContain("shared"));
}

TEST(CountingBloomTest, ProjectionMatchesBitwiseRebuild) {
  CountingBloomFilter cbf(600, 4);
  BloomFilter reference(600, 4);
  const auto keys = MakeKeys(40);
  for (const auto& k : keys) {
    cbf.Insert(k);
    reference.Insert(k);
  }
  EXPECT_EQ(cbf.projection(), reference);
  // Remove half; rebuild the reference from scratch.
  BloomFilter reference2(600, 4);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      cbf.Remove(keys[i]);
    } else {
      reference2.Insert(keys[i]);
    }
  }
  EXPECT_EQ(cbf.projection(), reference2);
}

TEST(CountingBloomTest, RemoveOfAbsentKeyDies) {
  CountingBloomFilter cbf(1200, 4);
  EXPECT_DEATH(cbf.Remove("never-inserted"), "underflow");
}

TEST(CountingBloomTest, SaturationPinsCounters) {
  CountingBloomFilter cbf(8, 1);  // tiny: every insert hits few positions
  for (int i = 0; i < 40; ++i) cbf.Insert("hot");
  EXPECT_GT(cbf.SaturatedCount(), 0u);
  // Saturated counters never decrement: removal cannot clear the bit.
  for (int i = 0; i < 40; ++i) cbf.Remove("hot");
  EXPECT_TRUE(cbf.MayContain("hot"));
}

TEST(CountingBloomTest, ClearResetsCountersAndProjection) {
  CountingBloomFilter cbf(128, 3);
  cbf.Insert("a");
  cbf.Clear();
  EXPECT_EQ(cbf.projection().CountOnes(), 0u);
  EXPECT_EQ(cbf.SaturatedCount(), 0u);
  cbf.Insert("a");  // usable after Clear
  EXPECT_TRUE(cbf.MayContain("a"));
}

// Counters are packed two per byte. With one probe, KeyHash128{p, 0} lands on
// counter p exactly, so these cases address single nibbles.
KeyHash128 At(uint64_t pos) { return KeyHash128{pos, 0}; }

TEST(CountingBloomTest, CountersSharingAByteAreIndependent) {
  CountingBloomFilter cbf(64, 1);
  for (int i = 0; i < 3; ++i) cbf.Insert(At(2));  // low nibble of byte 1
  cbf.Insert(At(3));                              // high nibble of byte 1
  EXPECT_EQ(cbf.CounterAt(2), 3u);
  EXPECT_EQ(cbf.CounterAt(3), 1u);
  cbf.Remove(At(3));
  EXPECT_EQ(cbf.CounterAt(2), 3u);
  EXPECT_EQ(cbf.CounterAt(3), 0u);
  EXPECT_TRUE(cbf.MayContain(At(2)));
  EXPECT_FALSE(cbf.MayContain(At(3)));
  const BloomFilter projection = cbf.projection();
  EXPECT_TRUE(projection.TestBit(2));
  EXPECT_FALSE(projection.TestBit(3));
  EXPECT_EQ(projection.CountOnes(), 1u);
}

TEST(CountingBloomTest, BothNibblesSaturateAndStayPinned) {
  CountingBloomFilter cbf(64, 1);
  for (int i = 0; i < 20; ++i) {
    cbf.Insert(At(4));
    cbf.Insert(At(5));
  }
  EXPECT_EQ(cbf.CounterAt(4), 15u);
  EXPECT_EQ(cbf.CounterAt(5), 15u);
  EXPECT_EQ(cbf.SaturatedCount(), 2u);
  // Saturation must not carry into the neighboring counters.
  EXPECT_EQ(cbf.CounterAt(3), 0u);
  EXPECT_EQ(cbf.CounterAt(6), 0u);
  for (int i = 0; i < 20; ++i) {
    cbf.Remove(At(4));
    cbf.Remove(At(5));
  }
  EXPECT_EQ(cbf.CounterAt(4), 15u);
  EXPECT_EQ(cbf.CounterAt(5), 15u);
  EXPECT_TRUE(cbf.MayContain(At(4)));
  EXPECT_TRUE(cbf.MayContain(At(5)));
}

TEST(CountingBloomTest, OddWidthHandlesTheLastHalfByte) {
  // m = 1201: counter 1200 is alone in the low nibble of the last byte.
  CountingBloomFilter cbf(1201, 1);
  for (int i = 0; i < 20; ++i) cbf.Insert(At(1200));
  cbf.Insert(At(1199));
  EXPECT_EQ(cbf.CounterAt(1200), 15u);
  EXPECT_EQ(cbf.CounterAt(1199), 1u);
  EXPECT_DEATH(cbf.CounterAt(1201), "CHECK");

  BloomFilter advertised(1201, 1);
  EXPECT_EQ(cbf.SyncProjection(&advertised), (std::vector<uint32_t>{1199, 1200}));
  EXPECT_EQ(advertised.num_bits(), 1201u);
  EXPECT_EQ(advertised.CountOnes(), 2u);
  EXPECT_EQ(advertised, cbf.projection());

  cbf.Remove(At(1199));
  EXPECT_EQ(cbf.CounterAt(1200), 15u);
  EXPECT_EQ(cbf.SyncProjection(&advertised), (std::vector<uint32_t>{1199}));
  EXPECT_TRUE(advertised.TestBit(1200));
  EXPECT_EQ(advertised.CountOnes(), 1u);
}

TEST(CountingBloomTest, RemoveUnderflowInAPackedByteDies) {
  // The byte holding counters 2 and 3 is nonzero, but counter 3 is empty.
  CountingBloomFilter cbf(64, 1);
  cbf.Insert(At(2));
  EXPECT_DEATH(cbf.Remove(At(3)), "underflow");
}

TEST(CountingBloomTest, SyncProjectionEmitsOnlyChanges) {
  CountingBloomFilter cbf(256, 3);
  BloomFilter advertised(256, 3);
  EXPECT_TRUE(cbf.SyncProjection(&advertised).empty());
  cbf.Insert("a");
  const std::vector<uint32_t> first = cbf.SyncProjection(&advertised);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(advertised, cbf.projection());
  EXPECT_TRUE(cbf.SyncProjection(&advertised).empty());  // nothing moved since
  // A counter that leaves zero and returns leaves the projection where it was.
  cbf.Insert("b");
  cbf.Remove("b");
  EXPECT_TRUE(cbf.SyncProjection(&advertised).empty());
  EXPECT_EQ(advertised, cbf.projection());
  BloomFilter narrower(128, 3);
  EXPECT_DEATH(cbf.SyncProjection(&narrower), "mismatch");
}

TEST(CountingBloomTest, PackedCountersMirrorAByteReference) {
  // Seeded fuzz: the nibble-packed filter against one byte per counter, with
  // the same saturate-at-15 rule, over shapes that end on a full word, a
  // full byte and a half byte. The derived projection and every sync delta
  // must match the reference bit for bit.
  struct Shape {
    size_t bits;
    size_t hashes;
  };
  for (const Shape shape : {Shape{64, 1}, Shape{600, 3}, Shape{1201, 4}}) {
    Rng rng(0xb100f + shape.bits);
    CountingBloomFilter cbf(shape.bits, shape.hashes);
    std::vector<uint8_t> reference(shape.bits, 0);
    std::vector<std::string> present;  // inserted keys, with multiplicity
    BloomFilter advertised(shape.bits, shape.hashes);
    BloomFilter last_projection(shape.bits, shape.hashes);
    const BloomFilter probe(shape.bits, shape.hashes);
    for (int step = 0; step < 4000; ++step) {
      if (present.empty() || rng.Bernoulli(0.55)) {
        // A small key space forces repeats, so counters climb to 15.
        const std::string key = "k" + std::to_string(rng.UniformInt(0, 40));
        cbf.Insert(key);
        for (uint32_t pos : probe.ProbePositions(key)) {
          if (reference[pos] < 15) ++reference[pos];
        }
        present.push_back(key);
      } else {
        const size_t i = rng.UniformInt(0, present.size() - 1);
        const std::string key = present[i];
        present[i] = present.back();
        present.pop_back();
        cbf.Remove(key);
        for (uint32_t pos : probe.ProbePositions(key)) {
          if (reference[pos] < 15) --reference[pos];
        }
      }
      for (size_t pos = 0; pos < shape.bits; ++pos) {
        ASSERT_EQ(cbf.CounterAt(pos), reference[pos])
            << "m=" << shape.bits << " counter " << pos << " at step " << step;
      }
      if (step % 7 != 0) continue;
      BloomFilter expected(shape.bits, shape.hashes);
      for (size_t pos = 0; pos < shape.bits; ++pos) {
        if (reference[pos] > 0) expected.SetBit(pos);
      }
      ASSERT_EQ(cbf.projection(), expected) << "m=" << shape.bits << " step " << step;
      ASSERT_EQ(cbf.SyncProjection(&advertised), last_projection.DiffPositions(expected))
          << "m=" << shape.bits << " step " << step;
      ASSERT_EQ(advertised, expected);
      last_projection = expected;
    }
  }
}

// --- BloomDelta ---

TEST(BloomDeltaTest, ComputeAndApplyRoundTrip) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (const auto& k : MakeKeys(20)) after.Insert(k);
  const BloomDelta delta = ComputeDelta(before, after);
  EXPECT_FALSE(delta.empty());
  ASSERT_TRUE(ApplyDelta(delta, &before).ok());
  EXPECT_EQ(before, after);
}

TEST(BloomDeltaTest, DeltaOfIdenticalFiltersIsEmpty) {
  BloomFilter a(512, 4);
  a.Insert("x");
  const BloomDelta delta = ComputeDelta(a, a);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(WireSizeBits(delta), 16u);  // header only
}

TEST(BloomDeltaTest, ApplyRejectsShapeMismatch) {
  BloomFilter small(256, 4);
  BloomDelta delta;
  delta.filter_bits = 512;
  delta.positions = {1};
  EXPECT_FALSE(ApplyDelta(delta, &small).ok());
}

TEST(BloomDeltaTest, ApplyRejectsOutOfRangePositionAtomically) {
  BloomFilter f(256, 4);
  BloomDelta delta;
  delta.filter_bits = 256;
  delta.positions = {10, 999};
  EXPECT_FALSE(ApplyDelta(delta, &f).ok());
  EXPECT_FALSE(f.TestBit(10));  // nothing applied on failure
}

TEST(BloomDeltaTest, PositionBitsMatchesPaperFootnote) {
  // "The location of each bit [in a 1200-bit vector] by 11 bits."
  EXPECT_EQ(PositionBits(1200), 11u);
  EXPECT_EQ(PositionBits(1024), 10u);
  EXPECT_EQ(PositionBits(1025), 11u);
  EXPECT_EQ(PositionBits(2), 1u);
}

TEST(BloomDeltaTest, WireSizeMatchesPaperBound) {
  // One filename = 3 keywords x 4 hashes = at most 12 changed bits; the paper
  // bounds the update at 12 * 11 = 132 bits (~0.132 Kb) + small header.
  BloomFilter before(1200, 4), after(1200, 4);
  after.Insert("kw-a");
  after.Insert("kw-b");
  after.Insert("kw-c");
  const BloomDelta delta = ComputeDelta(before, after);
  EXPECT_LE(delta.positions.size(), 12u);
  EXPECT_LE(WireSizeBits(delta), 16u + 132u);
}

TEST(BloomDeltaTest, EncodeDecodeRoundTrip) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (const auto& k : MakeKeys(30)) after.Insert(k);
  const BloomDelta delta = ComputeDelta(before, after);
  const std::vector<uint8_t> wire = EncodeDelta(delta);
  auto decoded = DecodeDelta(wire, 1200);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().positions, delta.positions);
}

TEST(BloomDeltaTest, EncodeEmptyDelta) {
  BloomDelta delta;
  delta.filter_bits = 1200;
  const auto wire = EncodeDelta(delta);
  EXPECT_EQ(wire.size(), 2u);
  auto decoded = DecodeDelta(wire, 1200);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.ValueOrDie().positions.empty());
}

TEST(BloomDeltaTest, DecodeRejectsTruncatedInput) {
  BloomFilter before(1200, 4), after(1200, 4);
  for (const auto& k : MakeKeys(10)) after.Insert(k);
  std::vector<uint8_t> wire = EncodeDelta(ComputeDelta(before, after));
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(DecodeDelta(wire, 1200).ok());
  EXPECT_FALSE(DecodeDelta({}, 1200).ok());
}

TEST(BloomDeltaTest, DecodeRejectsOutOfRangePositions) {
  // filter_bits = 100 -> 7 bits per position, so values up to 127 are
  // encodable; hand-craft a payload carrying 127 and expect rejection.
  const std::vector<uint8_t> wire{1, 0, 127};
  EXPECT_FALSE(DecodeDelta(wire, 100).ok());
  // The same payload is valid for a 128-bit filter.
  EXPECT_TRUE(DecodeDelta(wire, 128).ok());
}

struct DeltaShape {
  size_t bits;
  size_t changes;
};

class BloomDeltaPropertyTest : public ::testing::TestWithParam<DeltaShape> {};

/// Property: encode/decode round-trips for any filter width and change count.
TEST_P(BloomDeltaPropertyTest, RoundTripsAcrossShapes) {
  const auto [bits, changes] = GetParam();
  Rng rng(bits * 31 + changes);
  BloomFilter before(bits, 3), after(bits, 3);
  std::set<uint32_t> flipped;
  while (flipped.size() < changes) {
    flipped.insert(static_cast<uint32_t>(rng.UniformInt(0, bits - 1)));
  }
  for (uint32_t pos : flipped) after.ToggleBit(pos);
  const BloomDelta delta = ComputeDelta(before, after);
  EXPECT_EQ(delta.positions.size(), changes);
  auto decoded = DecodeDelta(EncodeDelta(delta), bits);
  ASSERT_TRUE(decoded.ok());
  BloomFilter rebuilt(bits, 3);
  ASSERT_TRUE(ApplyDelta(decoded.ValueOrDie(), &rebuilt).ok());
  EXPECT_EQ(rebuilt, after);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BloomDeltaPropertyTest,
                         ::testing::Values(DeltaShape{64, 0}, DeltaShape{64, 64},
                                           DeltaShape{100, 7}, DeltaShape{1200, 12},
                                           DeltaShape{1200, 300},
                                           DeltaShape{4096, 1}));

}  // namespace
}  // namespace locaware::bloom

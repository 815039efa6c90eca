// Unit tests for the plane-word substrate (hw/plane.h) and the widened
// lane packing built on it (hw/batch.h): mask-helper edge cases, the
// trial-index planes of the exhaustive generator, pack/lane_value
// round-trips at every width, and — the load-bearing property — PlaneN<K>
// behaving exactly like K independent Plane64 words under every operator
// the engine uses.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/word.h"
#include "hw/batch.h"
#include "hw/plane.h"
#include "pack_test_util.h"

namespace sck::hw {
namespace {

using PlaneTypes =
    ::testing::Types<Plane64, Plane128, Plane256, Plane512>;

template <typename P>
class PlaneOps : public ::testing::Test {};
TYPED_TEST_SUITE(PlaneOps, PlaneTypes);

TYPED_TEST(PlaneOps, ZeroOnesAnyPopcount) {
  using P = TypeParam;
  constexpr int kW = PlaneTraits<P>::kLanes;
  const P zero = plane_zero<P>();
  const P ones = plane_ones<P>();
  EXPECT_FALSE(plane_any(zero));
  EXPECT_TRUE(plane_any(ones));
  EXPECT_EQ(plane_popcount(zero), 0);
  EXPECT_EQ(plane_popcount(ones), kW);
  EXPECT_TRUE(zero == ~ones);
  EXPECT_TRUE(ones == ~zero);
}

TYPED_TEST(PlaneOps, BitAndTestRoundTrip) {
  using P = TypeParam;
  constexpr int kW = PlaneTraits<P>::kLanes;
  // Every lane, including the word-boundary lanes 63/64/127/...
  for (int lane = 0; lane < kW; ++lane) {
    const P p = plane_bit<P>(lane);
    EXPECT_EQ(plane_popcount(p), 1) << lane;
    for (int probe = 0; probe < kW; ++probe) {
      EXPECT_EQ(plane_test(p, probe), probe == lane) << lane;
    }
  }
}

TYPED_TEST(PlaneOps, PrefixEdgeCases) {
  using P = TypeParam;
  constexpr int kW = PlaneTraits<P>::kLanes;
  EXPECT_FALSE(plane_any(plane_prefix<P>(0)));
  EXPECT_TRUE(plane_prefix<P>(kW) == plane_ones<P>());
  // Every count, including the 64-lane block boundaries.
  for (int count = 0; count <= kW; ++count) {
    const P p = plane_prefix<P>(count);
    EXPECT_EQ(plane_popcount(p), count);
    if (count > 0) EXPECT_TRUE(plane_test(p, count - 1));
    if (count < kW) EXPECT_FALSE(plane_test(p, count));
  }
}

TYPED_TEST(PlaneOps, BroadcastIsAllOrNothing) {
  using P = TypeParam;
  EXPECT_TRUE(plane_broadcast<P>(0u) == plane_zero<P>());
  EXPECT_TRUE(plane_broadcast<P>(1u) == plane_ones<P>());
}

TYPED_TEST(PlaneOps, IndexPlanesEnumerateLaneIndices) {
  using P = TypeParam;
  constexpr int kW = PlaneTraits<P>::kLanes;
  // Bit of lane L in plane_index(j) must be bit j of L — the property the
  // exhaustive generator uses to make trial packing free.
  const int index_bits = std::countr_zero(static_cast<unsigned>(kW));
  for (int j = 0; j < index_bits; ++j) {
    const P p = plane_index<P>(j);
    for (int lane = 0; lane < kW; ++lane) {
      EXPECT_EQ(plane_test(p, lane), ((lane >> j) & 1) != 0)
          << "j=" << j << " lane=" << lane;
    }
  }
}

TYPED_TEST(PlaneOps, WordSetWordRoundTrip) {
  using P = TypeParam;
  constexpr int kWords = PlaneTraits<P>::kWords;
  Xoshiro256 rng(0x9E37u);
  P p = plane_zero<P>();
  std::uint64_t ref[8] = {};
  for (int i = 0; i < kWords; ++i) {
    ref[i] = rng.next();
    PlaneTraits<P>::set_word(p, i, ref[i]);
  }
  for (int i = 0; i < kWords; ++i) {
    EXPECT_EQ(PlaneTraits<P>::word(p, i), ref[i]) << i;
  }
}

TYPED_TEST(PlaneOps, OperatorsMatchPlane64Composition) {
  using P = TypeParam;
  constexpr int kWords = PlaneTraits<P>::kWords;
  Xoshiro256 rng(0xC0DEu);
  for (int rep = 0; rep < 16; ++rep) {
    std::uint64_t aw[8] = {};
    std::uint64_t bw[8] = {};
    P a = plane_zero<P>();
    P b = plane_zero<P>();
    for (int i = 0; i < kWords; ++i) {
      aw[i] = rng.next();
      bw[i] = rng.next();
      PlaneTraits<P>::set_word(a, i, aw[i]);
      PlaneTraits<P>::set_word(b, i, bw[i]);
    }
    const P and_ = a & b;
    const P or_ = a | b;
    const P xor_ = a ^ b;
    const P not_ = ~a;
    int pop = 0;
    for (int i = 0; i < kWords; ++i) {
      EXPECT_EQ(PlaneTraits<P>::word(and_, i), aw[i] & bw[i]);
      EXPECT_EQ(PlaneTraits<P>::word(or_, i), aw[i] | bw[i]);
      EXPECT_EQ(PlaneTraits<P>::word(xor_, i), aw[i] ^ bw[i]);
      EXPECT_EQ(PlaneTraits<P>::word(not_, i), ~aw[i]);
      pop += std::popcount(aw[i]);
    }
    EXPECT_EQ(plane_popcount(a), pop);
    P acc = a;
    acc &= b;
    EXPECT_TRUE(acc == and_);
    acc = a;
    acc |= b;
    EXPECT_TRUE(acc == or_);
    acc = a;
    acc ^= b;
    EXPECT_TRUE(acc == xor_);
    EXPECT_FALSE(a == not_);
  }
}

TYPED_TEST(PlaneOps, PackLaneValueRoundTrip) {
  using P = TypeParam;
  constexpr int kW = PlaneTraits<P>::kLanes;
  Xoshiro256 rng(0xBA7C4u);
  for (const int width : {4, 11, 16}) {
    // Full batch and a ragged tail (count not a multiple of 64).
    for (const int count : {kW, kW - 27}) {
      std::vector<Word> vals;
      for (int i = 0; i < count; ++i) {
        vals.push_back(rng.bounded(Word{1} << width));
      }
      const BatchWordT<P> w = pack<P>(vals, width);
      for (int lane = 0; lane < count; ++lane) {
        EXPECT_EQ(lane_value(w, lane, width),
                  vals[static_cast<std::size_t>(lane)])
            << "width=" << width << " lane=" << lane;
      }
      // Planes at or above the packed width stay zero (the invariant the
      // executors rely on to skip re-clearing).
      for (int j = width; j < width + 2; ++j) {
        EXPECT_FALSE(plane_any(w[j]));
      }
    }
  }
}

TYPED_TEST(PlaneOps, WidePackMatchesPlane64Blocks) {
  using P = TypeParam;
  constexpr int kW = PlaneTraits<P>::kLanes;
  const int width = 12;
  Xoshiro256 rng(0x51D3u);
  std::vector<Word> vals;
  for (int i = 0; i < kW; ++i) vals.push_back(rng.bounded(Word{1} << width));
  const BatchWordT<P> wide = pack<P>(vals, width);
  // Word w of every wide plane must equal the Plane64 pack of lanes
  // [64w, 64w + 64) — the block discipline the whole substrate shares.
  for (int blk = 0; blk * 64 < kW; ++blk) {
    const std::vector<Word> block(
        vals.begin() + blk * 64, vals.begin() + (blk + 1) * 64);
    const BatchWord narrow = pack(block, width);
    for (int j = 0; j < width; ++j) {
      EXPECT_EQ(PlaneTraits<P>::word(wide[j], blk), narrow[j])
          << "blk=" << blk << " plane=" << j;
    }
  }
}

// ---- runtime width selection ----------------------------------------------

TEST(PlaneDispatch, SupportedWidthsAndResolution) {
  EXPECT_TRUE(lanes_supported(64));
  EXPECT_TRUE(lanes_supported(128));
  EXPECT_TRUE(lanes_supported(256));
  EXPECT_TRUE(lanes_supported(512));
  EXPECT_FALSE(lanes_supported(0));
  EXPECT_FALSE(lanes_supported(32));
  EXPECT_FALSE(lanes_supported(1024));

  // Explicit request wins over everything.
  for (const int lanes : {64, 128, 256, 512}) {
    EXPECT_EQ(resolve_lanes(lanes), lanes);
  }
  // Unrequested and without SCK_LANES, every host resolves the one
  // constant default — no CPU probe.
  ASSERT_EQ(unsetenv("SCK_LANES"), 0);
  EXPECT_EQ(resolve_lanes(0), kDefaultLanes);
  EXPECT_EQ(kDefaultLanes, 256);
}

TEST(PlaneDispatch, EnvOverrideAppliesWhenUnrequested) {
  ASSERT_EQ(setenv("SCK_LANES", "128", /*overwrite=*/1), 0);
  EXPECT_EQ(resolve_lanes(0), 128);
  EXPECT_EQ(resolve_lanes(512), 512);  // explicit still wins
  ASSERT_EQ(unsetenv("SCK_LANES"), 0);
}

TEST(PlaneDispatch, MalformedEnvOverrideAborts) {
  // A typo'd SCK_LANES must abort with the offending text, never parse to
  // 0 (the old std::atoi behaviour) and silently fall back to
  // hw::kDefaultLanes, and never snap to a nearby width.
  for (const char* bad : {"garbage", "128x", " 128", "100", "-64", "1e2"}) {
    ASSERT_EQ(setenv("SCK_LANES", bad, /*overwrite=*/1), 0);
    EXPECT_DEATH((void)resolve_lanes(0), "SCK_LANES")
        << "SCK_LANES=\"" << bad << "\"";
  }
  ASSERT_EQ(unsetenv("SCK_LANES"), 0);
}

TEST(PlaneDispatch, DispatchSelectsMatchingWidth) {
  for (const int lanes : {64, 128, 256, 512}) {
    const int got =
        dispatch_plane(lanes, []<typename P>(std::type_identity<P>) {
          return PlaneTraits<P>::kLanes;
        });
    EXPECT_EQ(got, lanes);
  }
}

}  // namespace
}  // namespace sck::hw

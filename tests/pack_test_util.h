// Test-side lane packing: the inverse of hw::lane_value, for tests that
// feed a different scalar word to every lane of a batch word (the engine
// itself only ever broadcasts one word to all lanes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/assert.h"
#include "common/word.h"
#include "hw/batch.h"
#include "hw/plane.h"

namespace sck::hw {

/// Pack up to W scalar words into bit-plane layout, one transpose64 per
/// 64-lane block (reversed rows and planes undo transpose64's
/// anti-diagonal flip). Lanes beyond values.size() are zero.
template <typename P = LaneMask>
[[nodiscard]] BatchWordT<P> pack(std::span<const Word> values, int width) {
  constexpr int kWidthLanes = PlaneTraits<P>::kLanes;
  SCK_EXPECTS(static_cast<int>(values.size()) <= kWidthLanes);
  SCK_EXPECTS(width >= 1 && width <= kMaxWidth);
  BatchWordT<P> out;
  for (int blk = 0; blk < PlaneTraits<P>::kWords; ++blk) {
    const std::size_t base = static_cast<std::size_t>(blk) * 64;
    if (base >= values.size()) break;
    std::uint64_t rows[kLanes] = {};
    const std::size_t count =
        values.size() - base < 64 ? values.size() - base : 64;
    for (std::size_t lane = 0; lane < count; ++lane) {
      rows[kLanes - 1 - lane] = trunc(values[base + lane], width);
    }
    transpose64(rows);
    for (int i = 0; i < width; ++i) {
      PlaneTraits<P>::set_word(out[i], blk, rows[kLanes - 1 - i]);
    }
  }
  return out;
}

}  // namespace sck::hw

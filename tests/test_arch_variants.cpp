// Tests for the additional unit architectures: carry-skip adder, carry-save
// multiplier, non-restoring divider — fault-free equivalence, cell
// inventory, and architecture-specific behaviours.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "common/word.h"
#include "hw/array_multiplier.h"
#include "hw/carry_save_multiplier.h"
#include "hw/carry_skip_adder.h"
#include "hw/non_restoring_divider.h"
#include "hw/restoring_divider.h"

namespace sck::hw {
namespace {

// ---- carry-skip adder -------------------------------------------------------

TEST(CarrySkipAdder, FaultFreeMatchesReferenceExhaustive) {
  for (int n = 1; n <= 6; ++n) {
    const CarrySkipAdder adder(n);
    const Word limit = Word{1} << n;
    for (Word a = 0; a < limit; ++a) {
      for (Word b = 0; b < limit; ++b) {
        ASSERT_EQ(adder.add(a, b), add(a, b, n)) << "n=" << n;
        ASSERT_EQ(adder.sub(a, b), sub(a, b, n)) << "n=" << n;
      }
    }
  }
}

TEST(CarrySkipAdder, FaultFreeWideWidthsSampled) {
  Xoshiro256 rng(0x5109);
  for (const int n : {8, 12, 16, 24, 32}) {
    const CarrySkipAdder adder(n);
    for (int i = 0; i < 2000; ++i) {
      const Word a = rng.bounded(Word{1} << n);
      const Word b = rng.bounded(Word{1} << n);
      bool cout = false;
      const Word s = adder.add_c_out(a, b, false, cout);
      ASSERT_EQ(s, add(a, b, n));
      ASSERT_EQ(cout, ((a + b) >> n) != 0);
    }
  }
}

TEST(CarrySkipAdder, CellInventoryMatchesBlocks) {
  for (const int n : {1, 4, 6, 8, 13, 16}) {
    const CarrySkipAdder adder(n);
    int expected = 0;
    for (const auto& blk : adder.blocks()) {
      expected += 3 * blk.bits;  // FA + XOR + (AND chain + MUX)
    }
    EXPECT_EQ(adder.cell_count(), expected) << "n=" << n;
    // Per-kind sanity on the first block.
    const auto& blk = adder.blocks().front();
    EXPECT_EQ(adder.cell_kind(blk.first_cell), CellKind::kFullAdder);
    EXPECT_EQ(adder.cell_kind(blk.first_cell + blk.bits), CellKind::kXor);
    EXPECT_EQ(adder.cell_kind(blk.first_cell + 3 * blk.bits - 1),
              CellKind::kMux);
  }
}

TEST(CarrySkipAdder, SkipMuxFaultTeleportsCarries) {
  // Stick the skip mux's select line (the block-propagate input) of the
  // first 4-bit block at 1: the incoming carry (0 for plain add) then
  // bypasses the chain even when the block generates a carry.
  CarrySkipAdder adder(8);
  const auto& blk = adder.blocks().front();
  const int mux_cell = blk.first_cell + 3 * blk.bits - 1;
  adder.set_fault(FaultSite{mux_cell, 2, true});  // sel stem stuck-at-1
  // 0xF + 1 generates a block carry; the faulty skip replaces it with the
  // incoming carry (0), so the carry never reaches the upper block.
  EXPECT_EQ(adder.add(0x0F, 0x01), Word{0x00});
  // Within-block results unaffected.
  EXPECT_EQ(adder.add(0x03, 0x04), Word{0x07});
}

// ---- carry-save multiplier --------------------------------------------------

TEST(CarrySaveMultiplier, FaultFreeMatchesReferenceExhaustive) {
  for (int n = 1; n <= 6; ++n) {
    const CarrySaveMultiplier m(n);
    const Word limit = Word{1} << n;
    for (Word a = 0; a < limit; ++a) {
      for (Word b = 0; b < limit; ++b) {
        ASSERT_EQ(m.mul(a, b), mul(a, b, n))
            << "n=" << n << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(CarrySaveMultiplier, FaultFreeWideWidthsSampled) {
  Xoshiro256 rng(0x05A9);
  for (const int n : {8, 12, 16, 24, 32}) {
    const CarrySaveMultiplier m(n);
    for (int i = 0; i < 2000; ++i) {
      const Word a = rng.bounded(Word{1} << n);
      const Word b = rng.bounded(Word{1} << n);
      ASSERT_EQ(m.mul(a, b), mul(a, b, n)) << "n=" << n;
    }
  }
}

TEST(CarrySaveMultiplier, SameCellBudgetDifferentRouting) {
  // Equal inventory to the ripple-accumulate array, different structure:
  // the same fault index can behave differently.
  const int n = 4;
  ArrayMultiplier ripple(n);
  CarrySaveMultiplier save(n);
  ASSERT_EQ(ripple.cell_count(), save.cell_count());
  ASSERT_EQ(ripple.fault_universe().size(), save.fault_universe().size());

  int differing_faults = 0;
  const Word limit = Word{1} << n;
  for (const FaultSite& f : ripple.fault_universe()) {
    ripple.set_fault(f);
    save.set_fault(f);
    bool differ = false;
    for (Word a = 0; a < limit && !differ; ++a) {
      for (Word b = 0; b < limit && !differ; ++b) {
        differ = ripple.mul(a, b) != save.mul(a, b);
      }
    }
    differing_faults += differ ? 1 : 0;
    ripple.clear_fault();
    save.clear_fault();
  }
  EXPECT_GT(differing_faults, 0)
      << "carry-save routing should change some fault behaviours";
}

// ---- non-restoring divider --------------------------------------------------

TEST(NonRestoringDivider, FaultFreeMatchesHostExhaustive) {
  for (int n = 1; n <= 7; ++n) {
    const NonRestoringDivider d(n);
    const Word limit = Word{1} << n;
    for (Word a = 0; a < limit; ++a) {
      for (Word b = 1; b < limit; ++b) {
        const DivResult r = d.divide(a, b);
        ASSERT_EQ(r.quotient, a / b) << "n=" << n << " a=" << a << " b=" << b;
        ASSERT_EQ(r.remainder, a % b) << "n=" << n << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(NonRestoringDivider, FaultFreeWideWidthsSampled) {
  Xoshiro256 rng(0x0d1f);
  for (const int n : {8, 12, 16, 24}) {
    const NonRestoringDivider d(n);
    for (int i = 0; i < 2000; ++i) {
      const Word a = rng.bounded(Word{1} << n);
      const Word b = 1 + rng.bounded((Word{1} << n) - 1);
      const DivResult r = d.divide(a, b);
      ASSERT_EQ(r.quotient, a / b) << "n=" << n;
      ASSERT_EQ(r.remainder, a % b) << "n=" << n;
    }
  }
}

TEST(NonRestoringDivider, FaultUniverseCoversSignedChain) {
  for (const int n : {2, 4, 8}) {
    const NonRestoringDivider d(n);
    EXPECT_EQ(d.cell_count(), n + 2);
    EXPECT_EQ(d.fault_universe().size(), static_cast<std::size_t>(32 * (n + 2)));
  }
}

TEST(DividerArchitectures, MaskingProfilesDiffer) {
  // Same inverse check, different internal algorithm: the masked counts of
  // the two dividers under exhaustive fault injection should not coincide.
  const int n = 4;
  RestoringDivider restoring(n);
  NonRestoringDivider non_restoring(n);
  const Word limit = Word{1} << n;
  const auto masked_count = [&](auto& div) {
    std::uint64_t masked = 0;
    for (const FaultSite& f : div.fault_universe()) {
      div.set_fault(f);
      for (Word a = 0; a < limit; ++a) {
        for (Word b = 1; b < limit; ++b) {
          const DivResult r = div.divide(a, b);
          const Word q = trunc(r.quotient, n);
          const Word rem = trunc(r.remainder, n);
          const bool wrong = q != a / b || rem != a % b;
          const bool check_passes = trunc(q * b + rem, n) == a;
          masked += (wrong && check_passes) ? 1 : 0;
        }
      }
      div.clear_fault();
    }
    return masked;
  };
  const auto m1 = masked_count(restoring);
  const auto m2 = masked_count(non_restoring);
  EXPECT_GT(m1, 0u);
  EXPECT_GT(m2, 0u);
  EXPECT_NE(m1, m2);
}

}  // namespace
}  // namespace sck::hw

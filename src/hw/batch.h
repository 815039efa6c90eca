// Wide bit-parallel (PPSFP-style) evaluation substrate.
//
// The campaign drivers spend their whole budget evaluating the same small
// cell netlists over millions of input rows. Classic parallel-pattern
// single-fault-propagation (PPSFP) fault simulation packs independent
// patterns into machine words; we do the same with a *bit-plane* layout:
//
//   A BatchWordT<P> carries W independent n-bit trial operands, where W is
//   the lane count of the plane word P (hw/plane.h: 64/128/256/512). Plane
//   i is a P whose bit L is bit i of lane L's word ("lane" = trial index
//   inside the batch). One bitwise op on a plane therefore advances all W
//   trials at once.
//
// The plane word is a template parameter everywhere; `BatchWord` (and the
// other unsuffixed aliases below) remain the 64-lane uint64_t reference —
// the substrate every wider width must match bit for bit.
//
// Cells evaluate in this layout in two ways:
//   - golden cells: their truth tables are fixed, so the boolean bit-plane
//     expressions (s = a^b^c, co = ab | (a^b)c, ...) are hand-compiled and
//     inlined by FaultableUnit's *_batch helpers;
//   - the (single) faulty cell: its corrupted CellLut is compiled once at
//     set_fault time into a CellBatch — one 8-bit truth-table mask per
//     output — and evaluated generically as a sum of minterms over the
//     input planes.
//
// The batch path is lane-for-lane identical to the scalar LUT path by
// construction: both read the same CellLut rows; the differential tests in
// tests/test_batch.cpp verify this for every unit, width and fault, and
// tests/test_plane.cpp holds every wide plane equal to a 64-lane-composed
// reference.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/assert.h"
#include "common/word.h"
#include "hw/cell.h"
#include "hw/plane.h"

namespace sck::hw {

/// Number of independent trials per bitwise op in the 64-lane reference
/// substrate (generic code uses PlaneTraits<P>::kLanes).
inline constexpr int kLanes = 64;

/// One bit per lane (e.g. "this lane's check failed") — 64-lane reference.
using LaneMask = std::uint64_t;

inline constexpr LaneMask kAllLanes = ~LaneMask{0};

/// Mask with the low `count` lanes set (count in [0, 64]).
[[nodiscard]] constexpr LaneMask lane_prefix(int count) {
  return count >= kLanes ? kAllLanes : ((LaneMask{1} << count) - 1);
}

/// Broadcast a scalar bit to all lanes.
[[nodiscard]] constexpr LaneMask lane_broadcast(unsigned bit_value) {
  return bit_value ? kAllLanes : LaneMask{0};
}

/// kLaneIndexPlane[j] bit L == bit j of the lane index L. These are the
/// planes of the identity packing "lane L carries value L", which makes
/// packing consecutive integers free (see ExhaustivePlan in fault/batch.h).
/// plane_index<P>(j) in hw/plane.h is the any-width generalisation.
inline constexpr std::array<LaneMask, 6> kLaneIndexPlane = {
    0xAAAA'AAAA'AAAA'AAAAULL, 0xCCCC'CCCC'CCCC'CCCCULL,
    0xF0F0'F0F0'F0F0'F0F0ULL, 0xFF00'FF00'FF00'FF00ULL,
    0xFFFF'0000'FFFF'0000ULL, 0xFFFF'FFFF'0000'0000ULL};

/// Lane-packed n-bit ring words over plane word P. Planes at or above the
/// word's width must be zero (broadcast_word() and all unit batch APIs
/// maintain this invariant). kMaxWidth + 2 planes cover the dividers' widest internal
/// chains.
template <typename P>
struct BatchWordT {
  std::array<P, kMaxWidth + 2> p{};

  [[nodiscard]] P& operator[](int i) {
    return p[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] const P& operator[](int i) const {
    return p[static_cast<std::size_t>(i)];
  }
};

/// The 64-lane reference batch word.
using BatchWord = BatchWordT<LaneMask>;

/// Invoke `fn(std::type_identity<P>{})` with the plane type for a resolved
/// lane count. This is the one place a runtime lane count becomes a plane
/// type; campaign drivers dispatch through it once per campaign.
template <typename Fn>
decltype(auto) dispatch_plane(int lanes, Fn&& fn) {
  switch (lanes) {
    case 64:
      return fn(std::type_identity<Plane64>{});
    case 128:
      return fn(std::type_identity<Plane128>{});
    case 256:
      return fn(std::type_identity<Plane256>{});
    case 512:
      return fn(std::type_identity<Plane512>{});
    default:
      break;
  }
  SCK_UNREACHABLE();
}

/// In-place transpose of a 64x64 bit matrix (Hacker's Delight 7-3 delta-swap
/// network). Under LSB-first indexing this flips about the anti-diagonal:
/// after the call, m[i] bit L == original m[63-L] bit (63-i). Callers
/// (fault::pack_pairs) compensate by reversing the row and plane indices,
/// which costs nothing.
inline void transpose64(std::uint64_t m[kLanes]) {
  std::uint64_t mask = 0x0000'0000'FFFF'FFFFULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < kLanes; k = (k + j + 1) & ~j) {
      const std::uint64_t t = (m[k] ^ (m[k + j] >> j)) & mask;
      m[k] ^= t;
      m[k + j] ^= t << j;
    }
  }
}

/// Read lane `lane` of a batch word back as a scalar.
template <typename P>
[[nodiscard]] Word lane_value(const BatchWordT<P>& w, int lane, int width) {
  SCK_EXPECTS(lane >= 0 && lane < PlaneTraits<P>::kLanes);
  Word v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<Word>(plane_test(w[i], lane)) << i;
  }
  return v;
}

// ---- glue-op plane expressions (netlist execution backend) -----------------
//
// The compiled netlist backend evaluates the synthesized datapath's glue —
// constant ROM reads and the campaign drivers' full-word comparisons — in
// plane space. These helpers are the plane twins of the scalar glue.

/// Broadcast one scalar n-bit word to all lanes (constant-ROM plane).
template <typename P = LaneMask>
[[nodiscard]] BatchWordT<P> broadcast_word(Word v, int width) {
  SCK_EXPECTS(width >= 1 && width <= kMaxWidth);
  BatchWordT<P> out;
  for (int i = 0; i < width; ++i) out[i] = plane_broadcast<P>(bit(v, i));
  return out;
}

/// Lanes whose value has any bit set in ANY plane — the plane twin of a
/// full-word `v != 0` test (comparator glue; see also hw/comparator.h for
/// the width-bounded checker-side planes).
template <typename P>
[[nodiscard]] P nonzero_lanes(const BatchWordT<P>& v) {
  P any{};
  for (int i = 0; i < kMaxWidth + 2; ++i) any |= v[i];
  return any;
}

/// Lanes on which two batch words differ in ANY plane — the plane twin of a
/// full-word `a != b` comparison.
template <typename P>
[[nodiscard]] P differing_lanes(const BatchWordT<P>& a,
                                const BatchWordT<P>& b) {
  P diff{};
  for (int i = 0; i < kMaxWidth + 2; ++i) diff |= a[i] ^ b[i];
  return diff;
}

/// A CellLut compiled for bit-plane evaluation: tt[o] bit r is output o of
/// truth-table row r. Evaluation is a sum of minterms over the input
/// planes; it is only used for the unit's single faulty cell, so its cost
/// is amortised over the batch's lanes and all the golden cells around it.
struct CellBatch {
  std::uint8_t tt[2] = {0, 0};

  [[nodiscard]] static constexpr CellBatch compile(const CellLut& lut) {
    CellBatch cb;
    for (int row = 0; row < 8; ++row) {
      const auto entry = lut[static_cast<std::size_t>(row)];
      cb.tt[0] |= static_cast<std::uint8_t>((entry & 1u) << row);
      cb.tt[1] |= static_cast<std::uint8_t>(((entry >> 1) & 1u) << row);
    }
    return cb;
  }

  /// Evaluate one output over three input planes (row = a | b<<1 | c<<2).
  template <typename P>
  [[nodiscard]] static P eval3(std::uint8_t tt, const P& a, const P& b,
                               const P& c) {
    P out{};
    const P na = ~a;
    const P nb = ~b;
    const P nc = ~c;
    if (tt & 0x01) out |= na & nb & nc;
    if (tt & 0x02) out |= a & nb & nc;
    if (tt & 0x04) out |= na & b & nc;
    if (tt & 0x08) out |= a & b & nc;
    if (tt & 0x10) out |= na & nb & c;
    if (tt & 0x20) out |= a & nb & c;
    if (tt & 0x40) out |= na & b & c;
    if (tt & 0x80) out |= a & b & c;
    return out;
  }

  /// Evaluate one output over two input planes (row = a | b<<1).
  template <typename P>
  [[nodiscard]] static P eval2(std::uint8_t tt, const P& a, const P& b) {
    P out{};
    const P na = ~a;
    const P nb = ~b;
    if (tt & 0x01) out |= na & nb;
    if (tt & 0x02) out |= a & nb;
    if (tt & 0x04) out |= na & b;
    if (tt & 0x08) out |= a & b;
    return out;
  }
};

/// Per-lane fault assignment for one unit, used by the batched netlist
/// execution backend where lane L of a batch simulates its own injected
/// fault (lane = fault, not lane = input pattern). Unlike the single-fault
/// CellBatch path, different lanes may corrupt different cells with
/// different truth tables; each entry pins one compiled faulty LUT to a
/// set of lanes of one cell. A unit evaluates the golden plane expression
/// for every cell and blends each matching entry's CellBatch output into
/// the entry's lanes (see FaultableUnit::set_lane_faults).
///
/// Lane discipline: a lane hosts at most one fault across the whole design,
/// so entries targeting the same cell must carry disjoint lane masks.
template <typename P>
class LaneFaultSetT {
 public:
  struct Entry {
    int cell = -1;
    CellBatch batch;
    P lanes{};
  };

  /// Size the per-cell occupancy index once (cells never change).
  explicit LaneFaultSetT(int cell_count)
      : faulty_lanes_(static_cast<std::size_t>(cell_count), P{}),
        by_cell_(static_cast<std::size_t>(cell_count)) {}

  /// Drop all entries (cheap: only previously-touched cells are cleared).
  void clear() {
    for (const Entry& e : entries_) {
      faulty_lanes_[static_cast<std::size_t>(e.cell)] = P{};
      by_cell_[static_cast<std::size_t>(e.cell)].clear();
    }
    entries_.clear();
  }

  /// Corrupt `cell` on `lanes` with the compiled faulty truth table.
  void add(int cell, const CellLut& faulty_lut, const P& lanes) {
    SCK_EXPECTS(cell >= 0 &&
                static_cast<std::size_t>(cell) < faulty_lanes_.size());
    SCK_EXPECTS(
        !plane_any(faulty_lanes_[static_cast<std::size_t>(cell)] & lanes) &&
        "a lane hosts at most one fault per cell");
    faulty_lanes_[static_cast<std::size_t>(cell)] |= lanes;
    by_cell_[static_cast<std::size_t>(cell)].push_back(
        static_cast<std::uint32_t>(entries_.size()));
    entries_.push_back(Entry{cell, CellBatch::compile(faulty_lut), lanes});
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Hot-path occupancy probe: does any lane corrupt this cell?
  [[nodiscard]] bool cell_faulty(int cell) const {
    return plane_any(faulty_lanes_[static_cast<std::size_t>(cell)]);
  }

  /// All entries (a batch holds at most W).
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Indices of the entries corrupting `cell`. The blend loops iterate
  /// this instead of filtering entries(): with W faults per batch landing
  /// on the same unit, a full scan per faulty cell per sample is the
  /// difference between flat and W-linear faulty-cell cost.
  [[nodiscard]] std::span<const std::uint32_t> cell_entries(int cell) const {
    return by_cell_[static_cast<std::size_t>(cell)];
  }

 private:
  std::vector<P> faulty_lanes_;  ///< per cell: lanes with a fault
  std::vector<std::vector<std::uint32_t>> by_cell_;  ///< per cell: entries
  std::vector<Entry> entries_;
};

/// The 64-lane reference lane-fault table.
using LaneFaultSet = LaneFaultSetT<LaneMask>;

/// Derived convenience ops shared by every adder architecture. An adder
/// implements the primitive
///   P add_c_batch(const BatchWordT<P>& a, const BatchWordT<P>& b,
///                 const P& carry_in, BatchWordT<P>& sum) const;
/// and inherits add/sub/negate on top of it (sub is the g-function path:
/// one's complement of b, carry-in 1; negate is 0 - x on the same chain) —
/// one definition instead of one copy per architecture.
template <typename Adder>
class BatchAdderOps {
 public:
  template <typename P>
  [[nodiscard]] BatchWordT<P> add_batch(const BatchWordT<P>& a,
                                        const BatchWordT<P>& b) const {
    BatchWordT<P> sum;
    self().add_c_batch(a, b, P{}, sum);
    return sum;
  }

  template <typename P>
  [[nodiscard]] BatchWordT<P> sub_batch(const BatchWordT<P>& a,
                                        const BatchWordT<P>& b) const {
    BatchWordT<P> nb;
    const int n = self().width();
    for (int i = 0; i < n; ++i) nb[i] = ~b[i];
    BatchWordT<P> diff;
    self().add_c_batch(a, nb, plane_ones<P>(), diff);
    return diff;
  }

  template <typename P>
  [[nodiscard]] BatchWordT<P> negate_batch(const BatchWordT<P>& x) const {
    return sub_batch(BatchWordT<P>{}, x);
  }

 private:
  [[nodiscard]] const Adder& self() const {
    return static_cast<const Adder&>(*this);
  }
};

// ---- golden (fault-free) bit-plane reference arithmetic --------------------
//
// The batched trials need fault-free golden results per lane; computing them
// in plane space keeps the hot loop free of per-lane scalar work. These
// helpers implement the same ring semantics as common/word.h.

/// sum = a + b + cin in the n-bit ring; returns the carry-out plane.
template <typename P>
P golden_add(const BatchWordT<P>& a, const BatchWordT<P>& b,
             const P& carry_in, int width, BatchWordT<P>& sum) {
  P carry = carry_in;
  for (int i = 0; i < width; ++i) {
    const P x = a[i] ^ b[i];
    sum[i] = x ^ carry;
    carry = (a[i] & b[i]) | (x & carry);
  }
  return carry;
}

/// a - b in the n-bit ring (one's complement of b, carry-in 1).
template <typename P>
[[nodiscard]] BatchWordT<P> golden_sub(const BatchWordT<P>& a,
                                       const BatchWordT<P>& b, int width) {
  BatchWordT<P> nb;
  for (int i = 0; i < width; ++i) nb[i] = ~b[i];
  BatchWordT<P> diff;
  golden_add(a, nb, plane_ones<P>(), width, diff);
  return diff;
}

/// a * b (low word) in the n-bit ring: shift-and-add with each partial
/// product gated by the multiplier-bit plane.
template <typename P>
[[nodiscard]] BatchWordT<P> golden_mul(const BatchWordT<P>& a,
                                       const BatchWordT<P>& b, int width) {
  BatchWordT<P> acc;
  for (int i = 0; i < width; ++i) {
    BatchWordT<P> partial;
    for (int j = 0; i + j < width; ++j) partial[i + j] = a[j] & b[i];
    BatchWordT<P> next;
    golden_add(acc, partial, P{}, width, next);
    acc = next;
  }
  return acc;
}

/// Unsigned a / b and a % b per lane (restoring recurrence in plane space).
/// Lanes whose divisor is zero produce q = all-ones, r = a — callers mask
/// such lanes out of the statistics exactly like the scalar drivers skip
/// b == 0.
template <typename P>
void golden_divmod(const BatchWordT<P>& a, const BatchWordT<P>& b, int width,
                   BatchWordT<P>& q, BatchWordT<P>& r) {
  const int m = width + 1;
  q = BatchWordT<P>{};
  r = BatchWordT<P>{};
  BatchWordT<P> nb;
  for (int k = 0; k < m; ++k) nb[k] = ~b[k];
  for (int i = width - 1; i >= 0; --i) {
    for (int k = m - 1; k > 0; --k) r[k] = r[k - 1];
    r[0] = a[i];
    // diff = r - b on m planes; no_borrow = carry-out.
    BatchWordT<P> diff;
    const P no_borrow = golden_add(r, nb, plane_ones<P>(), m, diff);
    for (int k = 0; k < m; ++k) {
      r[k] = (no_borrow & diff[k]) | (~no_borrow & r[k]);
    }
    q[i] = no_borrow;
  }
}

// ---- lane-wise mod-3 residues (for the Residue3 technique) ----------------

/// A lane-packed residue in {0, 1, 2}: value = lo + 2*hi (hi & lo never
/// both set).
template <typename P>
struct LaneResidueT {
  P lo{};
  P hi{};
};

/// The 64-lane reference residue.
using LaneResidue = LaneResidueT<LaneMask>;

/// (x + y) mod 3, lane-wise.
template <typename P>
[[nodiscard]] LaneResidueT<P> residue3_add(const LaneResidueT<P>& x,
                                           const LaneResidueT<P>& y) {
  LaneResidueT<P> z;
  z.lo = (x.lo & ~y.lo & ~y.hi) | (~x.lo & ~x.hi & y.lo) | (x.hi & y.hi);
  z.hi = (x.hi & ~y.lo & ~y.hi) | (~x.lo & ~x.hi & y.hi) | (x.lo & y.lo);
  return z;
}

/// (x - y) mod 3, lane-wise: subtracting y is adding its mod-3 complement
/// (swap the 1 and 2 encodings).
template <typename P>
[[nodiscard]] LaneResidueT<P> residue3_sub(const LaneResidueT<P>& x,
                                           const LaneResidueT<P>& y) {
  return residue3_add(x, LaneResidueT<P>{y.hi, y.lo});
}

/// Lane-wise equality of two residues.
template <typename P>
[[nodiscard]] P residue3_eq(const LaneResidueT<P>& x,
                            const LaneResidueT<P>& y) {
  return ~((x.lo ^ y.lo) | (x.hi ^ y.hi));
}

/// v mod 3 per lane: fold in each bit plane with weight 2^i mod 3.
template <typename P>
[[nodiscard]] LaneResidueT<P> residue3_planes(const BatchWordT<P>& v,
                                              int width) {
  LaneResidueT<P> r;
  for (int i = 0; i < width; ++i) {
    const P b = v[i];
    LaneResidueT<P> next;
    if (i % 2 == 0) {  // weight 1: 0->1, 1->2, 2->0 where the bit is set
      next.lo = (~b & r.lo) | (b & ~r.lo & ~r.hi);
      next.hi = (~b & r.hi) | (b & r.lo);
    } else {  // weight 2: 0->2, 1->0, 2->1 where the bit is set
      next.lo = (~b & r.lo) | (b & r.hi);
      next.hi = (~b & r.hi) | (b & ~r.lo & ~r.hi);
    }
    r = next;
  }
  return r;
}

/// Broadcast residue of a scalar constant (e.g. residue3_pow2(n)).
template <typename P = LaneMask>
[[nodiscard]] constexpr LaneResidueT<P> residue3_const(unsigned value) {
  LaneResidueT<P> r;
  r.lo = plane_broadcast<P>(value % 3 == 1);
  r.hi = plane_broadcast<P>(value % 3 == 2);
  return r;
}

/// Gate a residue by a lane mask (residue where set, 0 elsewhere).
template <typename P>
[[nodiscard]] constexpr LaneResidueT<P> residue3_select(
    const LaneResidueT<P>& r, const P& m) {
  return LaneResidueT<P>{r.lo & m, r.hi & m};
}

}  // namespace sck::hw

// Field descriptions of the campaign types: one visit per type (see
// common/codec.h) drives the service wire codec, the store entry payload
// and the campaign fingerprint alike, so a field cannot be shipped without
// being hashed, or hashed without being shipped.
//
// Decode-side validation lives next to the fields it guards: every enum is
// range-checked by codec::Last, every v.check() below rejects what the
// engine would otherwise abort on, and the Dfg is rebuilt through its own
// builders only after every op code, arity, width and operand reference
// has been validated — so the builders' SCK_EXPECTS are unreachable from
// decoded bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/codec.h"
#include "common/word.h"
#include "fault/duration.h"
#include "fault/stats.h"
#include "hls/dfg.h"
#include "hls/netlist.h"
#include "hls/netlist_campaign.h"
#include "hls/netlist_exec.h"
#include "hw/fault_site.h"

namespace sck::codec {
template <>
struct Last<hls::Op> {
  static constexpr hls::Op value = hls::Op::kOr;
};
template <>
struct Last<hls::Operand::Kind> {
  static constexpr hls::Operand::Kind value = hls::Operand::Kind::kWire;
};
template <>
struct Last<hls::ResourceClass> {
  static constexpr auto value =
      static_cast<hls::ResourceClass>(hls::kResourceClassCount - 1);
};
template <>
struct Last<hls::NetlistBackend> {
  static constexpr hls::NetlistBackend value =
      hls::NetlistBackend::kIncremental;
};
template <>
struct Last<hls::StreamMode> {
  static constexpr hls::StreamMode value = hls::StreamMode::kShared;
};
template <>
struct Last<hls::FaultKind> {
  static constexpr hls::FaultKind value = hls::FaultKind::kSeu;
};
template <>
struct Last<fault::FaultDuration> {
  static constexpr fault::FaultDuration value =
      fault::FaultDuration::kIntermittent;
};
}  // namespace sck::codec

namespace sck::fault {

template <class V, codec::Is<CampaignStats> T>
void visit(V& v, T& s) {
  auto& [silent_correct, detected_correct, detected_erroneous, masked] = s;
  v(silent_correct, detected_correct, detected_erroneous, masked);
}

}  // namespace sck::fault

namespace sck::hw {

template <class V, codec::Is<FaultSite> T>
void visit(V& v, T& s) {
  auto& [cell, line, stuck_value] = s;
  v(cell, codec::as<std::uint32_t>(line), stuck_value);
  v.check(cell >= kNoFault);
}

}  // namespace sck::hw

namespace sck::hls {

// ---- Dfg -------------------------------------------------------------------

template <class V, codec::Is<Node> T>
void visit(V& v, T& n) {
  auto& [op, width, ins, value, name, is_check, check_group, release_delay] =
      n;
  v(op, width, ins, value, name, is_check, check_group, release_delay);
}

/// Replays `nodes` through the Dfg builders into the empty graph `g` (node
/// k becomes NodeId k, and the port lists come back in builder order).
/// Validates every op code, arity, width and operand reference FIRST;
/// false — with `g` partially built — on anything the builders would
/// reject.
[[nodiscard]] bool rebuild_dfg(std::span<const Node> nodes, Dfg& g);

/// The graph is its node array in id order: operands (outside kReg
/// next-value edges) point strictly backwards, so that captures the whole
/// graph, and decoding replays the builders.
template <class V, codec::Is<Dfg> T>
void visit(V& v, T& g) {
  if constexpr (V::kDecodes) {
    std::vector<Node> nodes;
    v(nodes);
    if (v.ok()) v.check(rebuild_dfg(nodes, g));
  } else {
    v(g.nodes());
  }
}

// ---- Netlist ---------------------------------------------------------------

template <class V, codec::Is<Operand> T>
void visit(V& v, T& o) {
  auto& [kind, index, value] = o;
  v(kind, index, value);
}

template <class V, codec::Is<FuInstance> T>
void visit(V& v, T& fu) {
  auto& [cls, width, group, name] = fu;
  v(cls, width, group, name);
  v.check(width >= 0 && width <= kMaxWidth && group >= kSharedGroup);
}

template <class V, codec::Is<RegisterInfo> T>
void visit(V& v, T& reg) {
  auto& [width, architectural, name] = reg;
  v(width, architectural, name);
  v.check(width >= 0 && width <= kMaxWidth);
}

template <class V, codec::Is<OutputPort> T>
void visit(V& v, T& port) {
  auto& [name, source] = port;
  v(name, source);
}

template <class V, codec::Is<StateLoad> T>
void visit(V& v, T& load) {
  auto& [dst_reg, source] = load;
  v(dst_reg, source);
}

template <class V, codec::Is<MicroOp> T>
void visit(V& v, T& m) {
  auto& [step, node, op, fu, src, dst_reg] = m;
  v(step, node, op, fu, src, dst_reg);
}

/// Every register, input, FU and step index the microcode, output ports
/// and state loads name exists in `n`.
[[nodiscard]] bool references_resolve(const Netlist& n);

template <class V, codec::Is<Netlist> T>
void visit(V& v, T& n) {
  auto& [name, data_width, num_steps, fus, regs, input_names, outputs,
         state_loads, micro] = n;
  v(name, data_width, num_steps, fus, regs, input_names, outputs, state_loads,
    micro);
  v.check(data_width >= 1 && data_width <= kMaxWidth && num_steps >= 0 &&
          num_steps <= (1 << 20));
  if constexpr (V::kDecodes) {
    if (v.ok()) v.check(references_resolve(n));
  }
}

// ---- campaign options, jobs and results ------------------------------------

template <class V, codec::Is<NetlistCampaignOptions> T>
void visit(V& v, T& o) {
  auto& [samples_per_fault, seed, fault_stride, threads, lanes, backend,
         stream, fault_dropping, duration, transient_samples, duty_permille,
         seu_faults] = o;
  v(samples_per_fault, seed, fault_stride, threads, lanes, backend, stream,
    fault_dropping, duration, transient_samples, duty_permille, seu_faults);
  v.check(samples_per_fault >= 1 && samples_per_fault <= (1 << 24));
  v.check(fault_stride >= 1 && threads >= 0 && threads <= (1 << 16));
  v.check(lanes == 0 || lanes == 64 || lanes == 128 || lanes == 256 ||
          lanes == 512);
  // kShared is the only stream model and encodes as 1: a raw 0 (an older
  // peer's per-fault campaign) must fail here rather than decode into an
  // enumerator that does not exist.
  v.check(stream == StreamMode::kShared);
  // Cross-field contracts the campaign engine asserts (SCK_EXPECTS): bytes
  // violating them must be a clean parse failure, not an abort inside
  // CampaignSliceRunner.
  v.check(!fault_dropping || backend == NetlistBackend::kIncremental);
  v.check(transient_samples >= 1 && duty_permille <= 1000);
}

template <class V, codec::Is<FaultJob> T>
void visit(V& v, T& job) {
  auto& [fu, site, kind, seu_bit] = job;
  v(fu, site, kind, seu_bit);
  // kSeu: fu names a register and seu_bit a bit within kMaxWidth; kStuckAt
  // must keep the sentinel so job equality round-trips.
  v.check(fu >= 0 && (kind == FaultKind::kSeu
                          ? seu_bit >= 0 && seu_bit < kMaxWidth
                          : seu_bit == -1));
}

template <class V, codec::Is<UnitCoverage> T>
void visit(V& v, T& unit) {
  auto& [fu_index, fu_name, faults, stats] = unit;
  v(fu_index, fu_name, faults, stats);
  v.check(fu_index >= 0);
}

template <class V, codec::Is<NetlistCampaignResult> T>
void visit(V& v, T& r) {
  auto& [aggregate, per_unit, fault_universe_size] = r;
  v(fault_universe_size, aggregate, per_unit);
}

// ---- compiled plan (hashed into the campaign fingerprint) ------------------

template <class V, codec::Is<ExecOperand> T>
void visit(V& v, T& o) {
  auto& [kind, index] = o;
  v(kind, index);
}

template <class V, codec::Is<ExecOp> T>
void visit(V& v, T& op) {
  auto& [code, fu, wire, dst_reg, width, src0, src1] = op;
  v(code, fu, wire, dst_reg, width, src0, src1);
}

template <class V, codec::Is<ExecPlan::StateLoad> T>
void visit(V& v, T& load) {
  auto& [dst_reg, source] = load;
  v(dst_reg, source);
}

/// The plan's back pointer to its netlist is identity, not content: the
/// netlist is visited on its own.
template <class V, codec::Is<ExecPlan> T>
void visit(V& v, T& p) {
  auto& [netlist, data_width, num_steps, num_regs, num_inputs, num_wires,
         const_pool, ops, step_begin, outputs, state_loads, error_output] = p;
  v(data_width, num_steps, num_regs, num_inputs, num_wires, const_pool, ops,
    step_begin, outputs, state_loads, error_output);
}

}  // namespace sck::hls

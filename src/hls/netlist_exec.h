// Compile-once execution plan for generated netlists, plus the
// lane-for-lane-identical execution backends that run it.
//
// compile_execution_plan lowers the FSM microcode of a Netlist into a flat
// plan: operands resolved to dense slots (register / input / wire /
// constant-pool index), constants pre-truncated, step boundaries and
// end-of-iteration state loads laid out as plain arrays. The "wire written
// before read, in the same step" invariant the interpreter used to check
// per read with a stamp table is validated once at compile time, so the
// execution loops index flat vectors with no hashing, no stamps and no
// allocation. A plan is immutable after compilation, so one compiled plan
// can be shared `const` across every worker thread of a campaign.
//
// Backend interface: ONE templated executor (run_plan_sample) drives any
// semantics type providing
//   using Value = ...;                 // Word or hw::BatchWord
//   ExecState<Value> state;           // slot storage
//   Value eval(const ExecOp&, const Value& a, const Value& b);
// Two semantics are provided:
//   ScalarExecSemantics     Word values through the units' scalar models —
//                           the NetlistSim path (hls/netlist_sim.h);
//   BatchExecSemanticsT<P>  W-lane plane words through the units' *_batch
//                           models, where lane L simulates its own injected
//                           fault — the NetlistBatchSimT path below. P is
//                           any plane word from hw/plane.h (Plane64 the
//                           bit-identity reference, Plane128/256/512 the
//                           wide variants picked by hw::dispatch_plane).
// One executor, two value domains: the backends cannot drift apart, and
// the differential tests (tests/test_netlist_batch.cpp) prove lane
// exactness across the full FU fault universe.
//
// On top of the batch semantics sits the *incremental* backend
// (NetlistIncrementalSimT): under a shared input stream every fault sees
// identical stimuli, so the fault-free execution is a single golden trace
// (GoldenTrace, recorded once per campaign) and an injected fault can only
// perturb the static fan-out cone of its FU (FaultCones, computed once per
// plan). The incremental executor replays just the union cone of the
// batch's faults in W-lane planes and splices every other wire — and its
// latch — from the golden trace as a broadcast, which is why it multiplies
// (rather than adds to) the bit-plane speedup.
//
// The unsuffixed NetlistBatchSim / NetlistIncrementalSim aliases are the
// 64-lane reference instantiations; the wide ones are explicitly
// instantiated in netlist_exec.cpp for every plane width.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/word.h"
#include "hls/netlist.h"
#include "hw/array_multiplier.h"
#include "hw/batch.h"
#include "hw/comparator.h"
#include "hw/fault_site.h"
#include "hw/restoring_divider.h"
#include "hw/ripple_carry_adder.h"

namespace sck::hls {

/// A resolved operand: slot index into the backend's value tables. kConst
/// operands index the plan's constant pool (literals pre-truncated to the
/// data width at compile time).
struct ExecOperand {
  Operand::Kind kind = Operand::Kind::kNone;
  std::int32_t index = -1;
};

/// One row of the compiled op stream: `op` executes on FU slot `fu` (< 0
/// for combinational glue) at `width`, writes wire slot `wire`, and — when
/// dst_reg >= 0 — latches into that register at the end of its step.
struct ExecOp {
  Op op = Op::kAdd;
  std::int32_t fu = -1;
  std::int32_t wire = -1;
  std::int32_t dst_reg = -1;
  std::int32_t width = 0;
  ExecOperand src0;
  ExecOperand src1;
};

/// The flat, preallocated execution plan shared by all backends. Compiled
/// once per netlist; immutable afterwards.
struct ExecPlan {
  const Netlist* netlist = nullptr;
  int data_width = 0;
  int num_steps = 0;
  std::int32_t num_regs = 0;
  std::int32_t num_inputs = 0;
  std::int32_t num_wires = 0;
  std::vector<Word> const_pool;          ///< distinct pre-truncated literals
  std::vector<ExecOp> ops;               ///< step-major, dataflow order
  std::vector<std::uint32_t> step_begin; ///< ops[step_begin[s]..step_begin[s+1])
  std::vector<ExecOperand> outputs;      ///< by netlist().outputs order
  struct StateLoad {
    std::int32_t dst_reg = -1;
    ExecOperand source;
  };
  std::vector<StateLoad> state_loads;
  std::int32_t error_output = -1;  ///< outputs index of "error", -1 if none
};

/// Lower the microcode into an ExecPlan. Validates the same-step
/// wire-before-read discipline and resolves every slot; aborts on a
/// malformed netlist.
[[nodiscard]] ExecPlan compile_execution_plan(const Netlist& netlist);

/// Static per-FU fan-out cones over a compiled plan: op_cone(f) is a
/// bitmask over plan.ops of every op whose result can diverge from the
/// fault-free execution when FU `f` hosts a fault, and reg_cone(f, s) the
/// registers that can diverge at step fence s (fence s = what step s's ops
/// read; fence num_steps = what outputs and state loads read). Taint
/// propagates through same-step wires and registers at FENCE granularity —
/// a later golden write to a (min-area, shared) register makes it clean
/// again — and is iterated to the cross-sample fixpoint through the
/// end-of-iteration state loads, so an op outside the cone, or a register
/// at a clean fence, is *guaranteed* golden on every lane — the invariant
/// the incremental backend's splicing rests on. Computed once per plan and
/// shared const across campaign workers.
class FaultCones {
 public:
  /// `include_seu` additionally computes one cone per plan REGISTER — the
  /// divergence closure of an SEU bit-flip in that register. The SEU
  /// fixpoint seeds the register tainted at EVERY fence and forces every
  /// op that latches into it (and every state load targeting it) tainted,
  /// so the register's batch slot is refreshed by an executing writer at
  /// each write point: the slot can never go stale between the flip sample
  /// and a later tainted read (the invariant the incremental backend's
  /// splicing rests on, extended to register-seeded faults).
  explicit FaultCones(const ExecPlan& plan, bool include_seu = false);

  /// Bitmask over plan.ops (bit i = plan.ops[i] is in the cone of `fu`).
  [[nodiscard]] std::span<const std::uint64_t> op_cone(int fu) const {
    SCK_EXPECTS(fu >= 0 && fu < num_fus_);
    return {masks_.data() + static_cast<std::size_t>(fu) * words_, words_};
  }

  /// Bitmask over plan registers at fence `step_point` in [0, num_steps]
  /// (bit r = register r can diverge there when `fu` hosts a fault).
  [[nodiscard]] std::span<const std::uint64_t> reg_cone(int fu,
                                                        int step_point) const {
    SCK_EXPECTS(fu >= 0 && fu < num_fus_);
    SCK_EXPECTS(step_point >= 0 && step_point <= num_steps_);
    return {reg_masks_.data() +
                (static_cast<std::size_t>(fu) *
                     (static_cast<std::size_t>(num_steps_) + 1) +
                 static_cast<std::size_t>(step_point)) *
                    reg_words_,
            reg_words_};
  }

  [[nodiscard]] std::size_t mask_words() const { return words_; }
  [[nodiscard]] std::size_t reg_mask_words() const { return reg_words_; }
  [[nodiscard]] int num_fus() const { return num_fus_; }
  [[nodiscard]] int num_steps() const { return num_steps_; }

  /// True when the per-register SEU cones were computed (include_seu).
  [[nodiscard]] bool has_seu_cones() const { return num_seu_regs_ > 0; }

  /// Bitmask over plan.ops for an SEU flip in register `reg`.
  [[nodiscard]] std::span<const std::uint64_t> seu_op_cone(int reg) const {
    SCK_EXPECTS(reg >= 0 && reg < num_seu_regs_);
    return {seu_masks_.data() + static_cast<std::size_t>(reg) * words_,
            words_};
  }

  /// Tainted-register bitmask at fence `step_point` for an SEU flip in
  /// register `reg`.
  [[nodiscard]] std::span<const std::uint64_t> seu_reg_cone(
      int reg, int step_point) const {
    SCK_EXPECTS(reg >= 0 && reg < num_seu_regs_);
    SCK_EXPECTS(step_point >= 0 && step_point <= num_steps_);
    return {seu_reg_masks_.data() +
                (static_cast<std::size_t>(reg) *
                     (static_cast<std::size_t>(num_steps_) + 1) +
                 static_cast<std::size_t>(step_point)) *
                    reg_words_,
            reg_words_};
  }

  /// Number of plan ops in the cone of `fu` (diagnostics / bench).
  [[nodiscard]] std::size_t cone_op_count(int fu) const;

 private:
  int num_fus_ = 0;
  int num_steps_ = 0;
  std::size_t words_ = 0;
  std::size_t reg_words_ = 0;
  std::vector<std::uint64_t> masks_;  ///< num_fus_ x words_, fu-major
  /// num_fus_ x (num_steps_ + 1) x reg_words_, fu-major then fence-major.
  std::vector<std::uint64_t> reg_masks_;
  int num_seu_regs_ = 0;  ///< num_regs when SEU cones were computed, else 0
  std::vector<std::uint64_t> seu_masks_;      ///< num_regs x words_
  std::vector<std::uint64_t> seu_reg_masks_;  ///< like reg_masks_, reg-major
};

/// Fault-free replay trace of a shared input stream: every wire value and
/// the per-step register file of every sample, recorded once per campaign
/// by record_golden_trace. The incremental backend splices its cone
/// boundary — non-cone wires read by cone ops, untainted registers — from
/// it (broadcast to all lanes); the trace also carries the stream itself
/// so batch inputs are broadcast rather than re-generated and transposed
/// per batch.
struct GoldenTrace {
  int samples = 0;
  int num_steps = 0;
  std::int32_t num_inputs = 0;
  std::int32_t num_wires = 0;
  std::int32_t num_regs = 0;
  std::vector<Word> inputs;  ///< samples x num_inputs, sample-major
  std::vector<Word> wires;   ///< samples x num_wires, sample-major
  /// samples x (num_steps + 1) x num_regs: point s of sample k is the
  /// register file read by step s's ops (s = 0: start of sample, after the
  /// previous sample's state loads); point num_steps is what outputs and
  /// state-load sources read (after the last step's latches).
  std::vector<Word> regs;

  [[nodiscard]] std::span<const Word> sample_inputs(int k) const {
    return {inputs.data() +
                static_cast<std::size_t>(k) *
                    static_cast<std::size_t>(num_inputs),
            static_cast<std::size_t>(num_inputs)};
  }
  [[nodiscard]] std::span<const Word> sample_wires(int k) const {
    return {wires.data() + static_cast<std::size_t>(k) *
                               static_cast<std::size_t>(num_wires),
            static_cast<std::size_t>(num_wires)};
  }
  [[nodiscard]] std::span<const Word> sample_regs(int k, int step_point) const {
    return {regs.data() +
                (static_cast<std::size_t>(k) *
                     (static_cast<std::size_t>(num_steps) + 1) +
                 static_cast<std::size_t>(step_point)) *
                    static_cast<std::size_t>(num_regs),
            static_cast<std::size_t>(num_regs)};
  }
};

/// Run the fault-free scalar execution of `plan` over `input_stream`
/// (samples x plan.num_inputs values, sample-major), recording every wire
/// value per sample. One call per campaign replaces the per-batch
/// fault-free work of the batched backend.
[[nodiscard]] GoldenTrace record_golden_trace(const ExecPlan& plan,
                                              std::span<const Word> input_stream,
                                              int samples);

/// The functional-unit models of one backend instance, index-aligned with
/// netlist.fus (checker-side classes carry no model). Owns the per-FU
/// fault state: scalar backends inject broadcast faults with set_fault,
/// the batched backend installs per-lane fault tables.
class FuBank {
 public:
  explicit FuBank(const Netlist& netlist);

  // Unit models are stateful (set_fault); a bank is pinned to its backend.
  FuBank(const FuBank&) = delete;
  FuBank& operator=(const FuBank&) = delete;

  /// Inject a cell fault into one FU instance (or clear it with an
  /// inactive FaultSite). Checker-side units accept no faults.
  void set_fault(int fu_index, const hw::FaultSite& fault);

  /// Enumerate the fault universe of one FU instance (empty for
  /// checker-side units).
  [[nodiscard]] std::vector<hw::FaultSite> fault_universe(int fu_index) const;

  /// Generic unit access (nullptr for checker-side classes).
  [[nodiscard]] hw::FaultableUnit* unit(int fu_index) const;

  [[nodiscard]] const hw::RippleCarryAdder& addsub(std::int32_t fu) const {
    return *addsub_[static_cast<std::size_t>(fu)];
  }
  [[nodiscard]] const hw::ArrayMultiplier& mul(std::int32_t fu) const {
    return *mul_[static_cast<std::size_t>(fu)];
  }
  [[nodiscard]] const hw::RestoringDivider& div(std::int32_t fu) const {
    return *div_[static_cast<std::size_t>(fu)];
  }

  [[nodiscard]] std::size_t size() const { return addsub_.size(); }

 private:
  std::vector<std::unique_ptr<hw::RippleCarryAdder>> addsub_;
  std::vector<std::unique_ptr<hw::ArrayMultiplier>> mul_;
  std::vector<std::unique_ptr<hw::RestoringDivider>> div_;
};

/// Slot storage of one backend instance: registers, latched inputs, wires
/// and the materialized constant pool, all preallocated to the plan's slot
/// counts. V is Word (scalar) or hw::BatchWord (64-lane planes).
template <typename V>
struct ExecState {
  std::vector<V> regs;
  std::vector<V> inputs;
  std::vector<V> wires;
  std::vector<V> consts;
  std::vector<std::pair<std::int32_t, V>> latches;
  std::vector<std::pair<std::int32_t, V>> loads;
  V zero{};

  void init(const ExecPlan& plan) {
    regs.assign(static_cast<std::size_t>(plan.num_regs), V{});
    inputs.assign(static_cast<std::size_t>(plan.num_inputs), V{});
    wires.assign(static_cast<std::size_t>(plan.num_wires), V{});
    consts.resize(plan.const_pool.size());
    latches.reserve(regs.size());
    loads.reserve(plan.state_loads.size());
  }

  void reset() {
    for (V& r : regs) r = V{};
  }

  [[nodiscard]] const V& read(const ExecOperand& op) const {
    switch (op.kind) {
      case Operand::Kind::kNone:
        return zero;
      case Operand::Kind::kReg:
        return regs[static_cast<std::size_t>(op.index)];
      case Operand::Kind::kConst:
        return consts[static_cast<std::size_t>(op.index)];
      case Operand::Kind::kInput:
        return inputs[static_cast<std::size_t>(op.index)];
      case Operand::Kind::kWire:
        return wires[static_cast<std::size_t>(op.index)];
    }
    return zero;
  }
};

/// Run one sample iteration of `plan` under `sem`, writing outputs by
/// position in plan.outputs. The step structure is exactly the
/// interpreter's: FU results latch at the end of their step, same-step
/// glue reads wires, outputs are sampled before the parallel
/// end-of-iteration state load. Inputs must already be in sem.state.inputs.
template <typename Sem>
void run_plan_sample(const ExecPlan& plan, Sem& sem,
                     std::span<typename Sem::Value> outputs) {
  auto& st = sem.state;
  for (int step = 0; step < plan.num_steps; ++step) {
    st.latches.clear();
    const std::uint32_t end =
        plan.step_begin[static_cast<std::size_t>(step) + 1];
    for (std::uint32_t i = plan.step_begin[static_cast<std::size_t>(step)];
         i < end; ++i) {
      const ExecOp& op = plan.ops[i];
      const auto& a = st.read(op.src0);
      const auto& b = st.read(op.src1);
      auto result = sem.eval(op, a, b);
      if (op.dst_reg >= 0) st.latches.emplace_back(op.dst_reg, result);
      st.wires[static_cast<std::size_t>(op.wire)] = std::move(result);
    }
    // Register writes commit at the end of the step.
    for (const auto& [reg, value] : st.latches) {
      st.regs[static_cast<std::size_t>(reg)] = value;
    }
  }

  // Outputs are sampled before the state registers advance.
  SCK_EXPECTS(outputs.size() == plan.outputs.size());
  for (std::size_t i = 0; i < plan.outputs.size(); ++i) {
    outputs[i] = st.read(plan.outputs[i]);
  }

  // Parallel end-of-iteration state load.
  st.loads.clear();
  for (const typename ExecPlan::StateLoad& load : plan.state_loads) {
    st.loads.emplace_back(load.dst_reg, st.read(load.source));
  }
  for (const auto& [reg, value] : st.loads) {
    st.regs[static_cast<std::size_t>(reg)] = value;
  }
}

/// Scalar semantics: Word values through the units' scalar cell models —
/// byte-for-byte the interpreter the plan was lowered from.
struct ScalarExecSemantics {
  using Value = Word;

  const ExecPlan& plan;
  const FuBank& bank;
  ExecState<Word> state;

  ScalarExecSemantics(const ExecPlan& p, const FuBank& b) : plan(p), bank(b) {
    state.init(p);
    for (std::size_t k = 0; k < p.const_pool.size(); ++k) {
      state.consts[k] = p.const_pool[k];
    }
  }

  [[nodiscard]] Word eval(const ExecOp& op, Word a, Word b) const {
    const int w = op.width;
    switch (op.op) {
      case Op::kAdd:
        return bank.addsub(op.fu).add(a, b);
      case Op::kSub:
        return bank.addsub(op.fu).sub(a, b);
      case Op::kNeg:
        return bank.addsub(op.fu).negate(a);
      case Op::kMul:
        return bank.mul(op.fu).mul(a, b);
      case Op::kDiv:
        return b == 0 ? 0 : trunc(bank.div(op.fu).divide(a, b).quotient, w);
      case Op::kRem:
        return b == 0 ? 0 : trunc(bank.div(op.fu).divide(a, b).remainder, w);
      case Op::kEq:
        return trunc(a, w) == trunc(b, w) ? 1 : 0;
      case Op::kIsZero:
        return trunc(a, w) == 0 ? 1 : 0;
      case Op::kNot:
        return (a & 1u) ^ 1u;
      case Op::kAnd:
        return a & b & 1u;
      case Op::kOr:
        return (a | b) & 1u;
      default:
        SCK_ASSERT(false && "non-executable op in execution plan");
    }
    return 0;
  }
};

/// W-lane bit-plane semantics: BatchWordT<P> planes through the units'
/// *_batch models. Each value plane carries W independent simulations of
/// the same netlist; per-lane faults enter through the FuBank units'
/// LaneFaultSetT hooks. Every case is the plane twin of the scalar case
/// above (zero-divisor lanes produce 0 exactly like the scalar
/// short-circuit; glue is evaluated on plane 0 of its 1-bit operands).
template <typename P>
struct BatchExecSemanticsT {
  using Value = hw::BatchWordT<P>;

  const ExecPlan& plan;
  const FuBank& bank;
  ExecState<Value> state;

  BatchExecSemanticsT(const ExecPlan& p, const FuBank& b) : plan(p), bank(b) {
    state.init(p);
    for (std::size_t k = 0; k < p.const_pool.size(); ++k) {
      state.consts[k] =
          hw::broadcast_word<P>(p.const_pool[k], p.data_width);
    }
  }

  [[nodiscard]] Value eval(const ExecOp& op, const Value& a,
                           const Value& b) const {
    const int w = op.width;
    Value out;
    switch (op.op) {
      case Op::kAdd:
        return bank.addsub(op.fu).add_batch(a, b);
      case Op::kSub:
        return bank.addsub(op.fu).sub_batch(a, b);
      case Op::kNeg:
        return bank.addsub(op.fu).negate_batch(a);
      case Op::kMul:
        return bank.mul(op.fu).mul_batch(a, b);
      case Op::kDiv:
      case Op::kRem: {
        // The scalar path truncates both operands to the divider width and
        // forces the result to 0 on a zero divisor; mirror both in planes.
        Value ta;
        Value tb;
        for (int i = 0; i < w; ++i) {
          ta[i] = a[i];
          tb[i] = b[i];
        }
        const P b_nonzero = hw::nonzero_lanes(b);
        const hw::BatchDivResultT<P> dr = bank.div(op.fu).divide_batch(ta, tb);
        const Value& source =
            op.op == Op::kDiv ? dr.quotient : dr.remainder;
        for (int i = 0; i < w; ++i) out[i] = source[i] & b_nonzero;
        return out;
      }
      case Op::kEq:
        out[0] = hw::equal_batch(a, b, w);
        return out;
      case Op::kIsZero:
        out[0] = hw::is_zero_batch(a, w);
        return out;
      case Op::kNot:
        out[0] = ~a[0];
        return out;
      case Op::kAnd:
        out[0] = a[0] & b[0];
        return out;
      case Op::kOr:
        out[0] = a[0] | b[0];
        return out;
      default:
        SCK_ASSERT(false && "non-executable op in execution plan");
    }
    return out;
  }
};

/// The 64-lane reference semantics.
using BatchExecSemantics = BatchExecSemanticsT<hw::LaneMask>;

/// W-lane execution backend over a compiled plan: lane L runs the same
/// netlist with lane L's injected fault (or fault-free on unassigned
/// lanes). The batched campaign drivers pack W faults per batch, feed
/// each lane its own input stream, and read back per-lane outputs.
template <typename P>
class NetlistBatchSimT {
 public:
  explicit NetlistBatchSimT(const Netlist& netlist);
  /// Share an externally owned compiled plan (must outlive the sim): the
  /// campaign drivers compile once and hand the same plan to every worker.
  explicit NetlistBatchSimT(const ExecPlan& plan);

  // Holds internal references (plan/bank); pinned like the scalar sim.
  NetlistBatchSimT(const NetlistBatchSimT&) = delete;
  NetlistBatchSimT& operator=(const NetlistBatchSimT&) = delete;

  /// Remove every per-lane fault (all lanes fault-free).
  void clear_lane_faults();

  /// Inject `fault` into FU `fu_index` on the lanes of `lanes`. A lane may
  /// host at most one fault across the whole design.
  void add_lane_fault(int fu_index, const hw::FaultSite& fault,
                      const P& lanes);

  /// Re-arm the installed faults on the lanes of `armed` only: lanes
  /// outside the mask run fault-free this sample while KEEPING any state
  /// divergence they already accumulated (the transient/intermittent
  /// semantics — a disarmed fault's residual corruption lives on). The
  /// installed set is untouched; call again with a different mask to
  /// toggle per sample.
  void arm_lane_faults(const P& armed);

  /// XOR bit-plane `bit` of register `reg` on the lanes of `lanes` — an
  /// SEU strike between samples, per-lane.
  void flip_register_bit(int reg, int bit, const P& lanes) {
    SCK_EXPECTS(reg >= 0 && reg < plan_.num_regs);
    SCK_EXPECTS(bit >= 0 && bit < kMaxWidth);
    sem_.state.regs[static_cast<std::size_t>(reg)]
                   [static_cast<std::size_t>(bit)] ^= lanes;
  }

  /// Enumerate the fault universe of one FU instance (empty for
  /// checker-side units).
  [[nodiscard]] std::vector<hw::FaultSite> fu_fault_universe(
      int fu_index) const {
    return bank_.fault_universe(fu_index);
  }

  /// Reset architectural state to zero on every lane.
  void reset() { sem_.state.reset(); }

  /// Run one sample iteration on all W lanes: `inputs` by position in
  /// netlist().input_names (planes at or above the data width must be
  /// zero, which broadcast_word() guarantees), `outputs` filled by
  /// position in netlist().outputs.
  void step_sample_batch(std::span<const hw::BatchWordT<P>> inputs,
                         std::span<hw::BatchWordT<P>> outputs);

  [[nodiscard]] const Netlist& netlist() const { return *plan_.netlist; }
  [[nodiscard]] const ExecPlan& plan() const { return plan_; }

 private:
  /// One installed per-lane fault (kept across arm_lane_faults calls).
  struct InstalledFault {
    int fu = -1;
    hw::FaultSite site;
    P lanes{};
  };

  void install(int fu_index, const hw::FaultSite& fault, const P& lanes);

  ExecPlan owned_plan_;     ///< empty when constructed over a shared plan
  const ExecPlan& plan_;
  FuBank bank_;
  std::vector<hw::LaneFaultSetT<P>> lane_faults_;  ///< per FU instance
  BatchExecSemanticsT<P> sem_;
  std::vector<InstalledFault> installed_;
};

/// The 64-lane reference batch backend.
using NetlistBatchSim = NetlistBatchSimT<hw::LaneMask>;

/// Golden-trace incremental execution backend: lane L runs the same
/// netlist with lane L's injected fault, but — because all lanes share one
/// input stream — only the union fan-out cone of the installed faults is
/// executed in W-lane planes. Everything else is never touched: cone ops
/// reading across the cone boundary (a non-cone wire, an untainted
/// register) splice the golden value from the trace as a broadcast at
/// read time, non-cone latches into tainted registers splice their golden
/// wire, and untainted registers are read straight from the trace's
/// per-step register timeline. Per-sample work is therefore proportional
/// to the cone, not to the plan — while staying lane-for-lane identical
/// to step_sample_batch under broadcast inputs.
template <typename P>
class NetlistIncrementalSimT {
 public:
  /// Both the plan and the cones are shared, externally owned state (one
  /// of each per campaign) and must outlive the sim.
  NetlistIncrementalSimT(const ExecPlan& plan, const FaultCones& cones);

  // Holds internal references (plan/cones/bank); pinned like its siblings.
  NetlistIncrementalSimT(const NetlistIncrementalSimT&) = delete;
  NetlistIncrementalSimT& operator=(const NetlistIncrementalSimT&) = delete;

  /// Remove every per-lane fault (all lanes fault-free, empty cone).
  void clear_lane_faults();

  /// Inject `fault` into FU `fu_index` on the lanes of `lanes` and grow
  /// the union cone by that FU's fan-out cone. A lane may host at most one
  /// fault across the whole design.
  void add_lane_fault(int fu_index, const hw::FaultSite& fault,
                      const P& lanes);

  /// Register an SEU flip of bit `bit` of register `reg` on the lanes of
  /// `lanes` and grow the union cone by that register's SEU cone (requires
  /// FaultCones(plan, /*include_seu=*/true)). The flip itself is applied
  /// by the campaign driver via flip_register_bit at the upset sample;
  /// this call only commits the cone so every affected op replays.
  void add_lane_seu(int reg, int bit, const P& lanes);

  /// Re-arm the installed STUCK-AT faults on the lanes of `armed` only
  /// (transient/intermittent duty). Rebuilds the per-FU lane fault tables;
  /// the union cone is deliberately NOT shrunk — a disarmed lane's
  /// residual state divergence still needs its cone replayed.
  void arm_lane_faults(const P& armed);

  /// XOR bit-plane `bit` of register `reg` on the lanes of `lanes`. Only
  /// meaningful for registers covered by add_lane_seu (their batch slots
  /// are kept fresh by the SEU cone's forced writers).
  void flip_register_bit(int reg, int bit, const P& lanes) {
    SCK_EXPECTS(reg >= 0 && reg < plan_.num_regs);
    SCK_EXPECTS(bit >= 0 && bit < kMaxWidth);
    sem_.state.regs[static_cast<std::size_t>(reg)]
                   [static_cast<std::size_t>(bit)] ^= lanes;
  }

  /// Load the golden register file of (sample k, fence 0) into every lane:
  /// the induction base for windowed replay. The incremental campaign
  /// driver skips samples before a batch's first possible divergence, then
  /// preloads here so tainted-fence register reads start from golden state.
  void preload_golden_registers(const GoldenTrace& trace, int k);

  /// Shrink the union cone to the faults of still-active lanes (fault
  /// dropping): retired lanes keep their fault installed but no longer
  /// contribute their FU's cone, so their planes become unspecified —
  /// callers must not read them again.
  void set_active_lanes(const P& active);

  /// Reset architectural state to zero on every lane.
  void reset() { sem_.state.reset(); }

  /// Replay sample `k` of `trace` under the installed faults: union-cone
  /// ops execute in batch semantics, everything else is spliced from the
  /// trace. `outputs` filled by position in netlist().outputs.
  void replay_sample(const GoldenTrace& trace, int k,
                     std::span<hw::BatchWordT<P>> outputs);

  /// Number of plan ops currently replayed per sample (diagnostics).
  [[nodiscard]] std::size_t cone_op_count() const;

  [[nodiscard]] const Netlist& netlist() const { return *plan_.netlist; }
  [[nodiscard]] const ExecPlan& plan() const { return plan_; }

 private:
  void rebuild_masks(const P& active);
  void compile_cone_program();
  /// Operand read with boundary splicing: batch state when the producer is
  /// inside the cone (wire) or the register is tainted at fence `step`,
  /// otherwise a broadcast of the golden value at (sample k, fence `step`)
  /// materialised in `scratch`.
  [[nodiscard]] const hw::BatchWordT<P>& read_spliced(
      const ExecOperand& op, const GoldenTrace& trace, int k, int step,
      hw::BatchWordT<P>& scratch) const;
  [[nodiscard]] bool reg_tainted_at(std::int32_t reg, int step_point) const {
    const std::size_t r = static_cast<std::size_t>(reg);
    return ((reg_cone_[static_cast<std::size_t>(step_point) *
                           cones_.reg_mask_words() +
                       (r >> 6)] >>
             (r & 63)) &
            1) != 0;
  }

  const ExecPlan& plan_;
  const FaultCones& cones_;
  FuBank bank_;
  std::vector<hw::LaneFaultSetT<P>> lane_faults_;  ///< per FU instance
  BatchExecSemanticsT<P> sem_;
  /// Installed stuck-at faults (full site kept for re-arming).
  struct InstalledFault {
    int fu = -1;
    hw::FaultSite site;
    P lanes{};
  };
  std::vector<InstalledFault> faults_;
  /// Installed SEU flips (reg, bit, lanes).
  struct InstalledSeu {
    int reg = -1;
    int bit = -1;
    P lanes{};
  };
  std::vector<InstalledSeu> seu_faults_;
  /// Bitmask over plan registers with at least one installed SEU: their
  /// state loads always execute (freshness of the forced-tainted slots).
  std::vector<std::uint64_t> seu_regs_;
  std::vector<std::uint32_t> producer_;  ///< wire slot -> plan op index
  std::vector<std::uint64_t> cone_;      ///< union op mask over plan_.ops
  /// Union tainted-register masks, fence-major: (num_steps + 1) fences of
  /// reg_mask_words() words each.
  std::vector<std::uint64_t> reg_cone_;
  std::vector<std::uint32_t> cone_ops_;  ///< cone op indices, plan order
  std::vector<std::uint32_t> cone_step_begin_;  ///< num_steps + 1 fences
  /// State loads whose source is tainted at the final fence (all other
  /// registers stay golden at fence 0 and are spliced on read).
  std::vector<ExecPlan::StateLoad> loads_;
  bool program_dirty_ = true;
};

/// The 64-lane reference incremental backend.
using NetlistIncrementalSim = NetlistIncrementalSimT<hw::LaneMask>;

}  // namespace sck::hls

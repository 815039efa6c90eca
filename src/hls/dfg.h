// Dataflow-graph IR for the behavioural-synthesis substrate.
//
// This is the representation the co-design flow of Fig. 3 lowers the
// specification into: operations (the things the SCK operators overload),
// constants, ports and state registers, connected by data edges. The CED
// expansion pass (expand_sck.h) rewrites a plain DFG into a self-checking
// one exactly the way the OFFIS synthesizer would lower the overloaded
// operators; scheduling/binding/netlist generation then turn either graph
// into an RTL structure.
//
// Conventions:
//  - the graph is acyclic except through kReg nodes (state): a kReg's input
//    is its *next* value, its output is the value registered at the start
//    of the sample iteration;
//  - node widths are uniform per graph for the data path; comparison and
//    logic nodes produce 1-bit results (width 1).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/assert.h"

namespace sck::hls {

/// DFG operation codes.
enum class Op : std::uint8_t {
  kInput,   ///< primary input port (no operands)
  kOutput,  ///< primary output port (one operand)
  kConst,   ///< literal (no operands)
  kReg,     ///< state register; operand = next value, result = current value
  kAdd,     ///< two-operand ring addition
  kSub,     ///< two-operand ring subtraction
  kMul,     ///< two-operand ring multiplication (low word)
  kDiv,     ///< unsigned quotient
  kRem,     ///< unsigned remainder
  kNeg,     ///< two's-complement negation
  kEq,      ///< comparator: 1-bit (a == b), checker-side
  kIsZero,  ///< comparator: 1-bit (a == 0), checker-side
  kNot,     ///< 1-bit logical not (error logic)
  kAnd,     ///< 1-bit logical and (error logic)
  kOr,      ///< 1-bit logical or (error logic)
};

[[nodiscard]] constexpr int op_arity(Op op) {
  switch (op) {
    case Op::kInput:
    case Op::kConst:
      return 0;
    case Op::kOutput:
    case Op::kReg:
    case Op::kNeg:
    case Op::kIsZero:
    case Op::kNot:
      return 1;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kRem:
    case Op::kEq:
    case Op::kAnd:
    case Op::kOr:
      return 2;
  }
  return 0;
}

[[nodiscard]] constexpr std::string_view to_string(Op op) {
  switch (op) {
    case Op::kInput:
      return "input";
    case Op::kOutput:
      return "output";
    case Op::kConst:
      return "const";
    case Op::kReg:
      return "reg";
    case Op::kAdd:
      return "add";
    case Op::kSub:
      return "sub";
    case Op::kMul:
      return "mul";
    case Op::kDiv:
      return "div";
    case Op::kRem:
      return "rem";
    case Op::kNeg:
      return "neg";
    case Op::kEq:
      return "eq";
    case Op::kIsZero:
      return "iszero";
    case Op::kNot:
      return "not";
    case Op::kAnd:
      return "and";
    case Op::kOr:
      return "or";
  }
  SCK_UNREACHABLE();
}

/// True for operations that occupy a data-path functional unit when
/// scheduled (ports, constants and registers are wires/storage).
[[nodiscard]] constexpr bool is_scheduled_op(Op op) {
  switch (op) {
    case Op::kInput:
    case Op::kOutput:
    case Op::kConst:
    case Op::kReg:
      return false;
    default:
      return true;
  }
}

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// Group id for check operations that must not share functional units with
/// other groups (models class-based synthesis, see expand_sck.h).
/// kSharedGroup means the op binds to the global resource pool.
inline constexpr int kSharedGroup = -1;

struct Node {
  Op op = Op::kConst;
  int width = 16;
  std::vector<NodeId> ins;
  long long value = 0;     ///< kConst literal
  std::string name;        ///< ports; empty otherwise
  bool is_check = false;   ///< inserted by the CED expansion pass
  /// Resource group: check nodes with a group != kSharedGroup bind to the
  /// group's private functional units; a *nominal* node carrying a group id
  /// is the owner of that check cluster (class-based CED style).
  int check_group = kSharedGroup;
  /// Extra steps before this node's result is released to consumers
  /// *outside its own check cluster*. Models the atomic checked operator of
  /// class-based synthesis: the overloaded call returns only after the
  /// hidden control completed.
  int release_delay = 0;
};

/// The dataflow graph. Nodes are append-only; NodeIds are stable.
class Dfg {
 public:
  [[nodiscard]] NodeId input(std::string name, int width);
  [[nodiscard]] NodeId constant(long long value, int width);
  /// Creates a state register initialised to zero; wire its next-value
  /// input later with set_reg_next (registers may feed themselves).
  [[nodiscard]] NodeId state_reg(std::string name, int width);
  void set_reg_next(NodeId reg, NodeId next);
  NodeId output(std::string name, NodeId src);
  [[nodiscard]] NodeId op(Op op, std::vector<NodeId> ins, int width);
  /// Shorthand for binary/unary data ops at the width of the first operand.
  [[nodiscard]] NodeId add(NodeId a, NodeId b) { return binop(Op::kAdd, a, b); }
  [[nodiscard]] NodeId sub(NodeId a, NodeId b) { return binop(Op::kSub, a, b); }
  [[nodiscard]] NodeId mul(NodeId a, NodeId b) { return binop(Op::kMul, a, b); }

  [[nodiscard]] const Node& node(NodeId id) const {
    SCK_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] Node& mutable_node(NodeId id) {
    SCK_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < nodes_.size());
    topo_dirty_ = true;  // the caller may rewire ins
    return nodes_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }

  [[nodiscard]] const std::vector<NodeId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<NodeId>& outputs() const { return outputs_; }
  [[nodiscard]] const std::vector<NodeId>& state_regs() const { return regs_; }

  /// Topological order of all nodes, treating kReg outputs as sources (the
  /// cycle through a register's next-value edge is a sequential, not
  /// combinational, dependency). Cached on the graph and recomputed lazily
  /// after any mutation (append / set_reg_next / mutable_node), so the
  /// per-sample evaluators pay for it once. The cache fill is not
  /// synchronized: call topo_order() (or validate()) once before sharing a
  /// graph across campaign worker threads — the campaign drivers do.
  [[nodiscard]] const std::vector<NodeId>& topo_order() const;

  /// Structural invariants: arities, port uniqueness, acyclicity (through
  /// combinational edges), every register wired. Aborts on violation.
  void validate() const;

  /// Number of nodes per op (for cost reporting and tests).
  [[nodiscard]] std::unordered_map<Op, int> op_histogram() const;

  /// Reference (unscheduled) simulation of one sample: given input values,
  /// computes outputs and the next register state. Used as the golden model
  /// for the netlist simulator.
  struct EvalResult {
    std::unordered_map<std::string, std::uint64_t> outputs;
  };
  [[nodiscard]] EvalResult eval(
      const std::unordered_map<std::string, std::uint64_t>& input_values,
      std::vector<std::uint64_t>& reg_state) const;

 private:
  [[nodiscard]] NodeId binop(Op o, NodeId a, NodeId b) {
    return op(o, {a, b}, node(a).width);
  }
  NodeId append(Node n);

  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> regs_;
  mutable std::vector<NodeId> topo_cache_;
  mutable bool topo_dirty_ = true;
};

}  // namespace sck::hls

#include "hls/serialize.h"

namespace sck::hls {

bool rebuild_dfg(std::span<const Node> nodes, Dfg& g) {
  const std::size_t count = nodes.size();
  for (std::size_t id = 0; id < count; ++id) {
    const Node& n = nodes[id];
    if (n.ins.size() != static_cast<std::size_t>(op_arity(n.op))) return false;
    if (n.width < 1 || n.width > kMaxWidth) return false;
    for (const NodeId in : n.ins) {
      if (n.op == Op::kReg) {
        // A register's next-value edge is sequential: forward references
        // (and kNoNode for a not-yet-wired register) are legal.
        if (in != kNoNode && (in < 0 || static_cast<std::size_t>(in) >= count)) {
          return false;
        }
      } else if (in < 0 || static_cast<std::size_t>(in) >= id) {
        // Combinational operands strictly precede their consumer — true of
        // every graph the builders can produce, and what makes the graph
        // acyclic by construction on replay.
        return false;
      }
    }
    if (n.check_group < kSharedGroup || n.release_delay < 0) return false;
    // output() derives its width from the source node; a disagreeing width
    // means the bytes do not describe a buildable graph.
    if (n.op == Op::kOutput && nodes[static_cast<std::size_t>(n.ins[0])].width !=
                                   n.width) {
      return false;
    }
  }

  for (const Node& n : nodes) {
    NodeId built = kNoNode;
    switch (n.op) {
      case Op::kInput:
        built = g.input(n.name, n.width);
        break;
      case Op::kConst:
        built = g.constant(n.value, n.width);
        break;
      case Op::kReg:
        built = g.state_reg(n.name, n.width);
        break;
      case Op::kOutput:
        built = g.output(n.name, n.ins[0]);
        break;
      default:
        built = g.op(n.op, n.ins, n.width);
        break;
    }
    Node& b = g.mutable_node(built);
    b.value = n.value;
    b.name = n.name;
    b.is_check = n.is_check;
    b.check_group = n.check_group;
    b.release_delay = n.release_delay;
  }
  // Validated above: every next-value edge is in [0, count), all nodes now
  // exist.
  for (std::size_t id = 0; id < count; ++id) {
    if (nodes[id].op == Op::kReg && nodes[id].ins[0] != kNoNode) {
      g.set_reg_next(static_cast<NodeId>(id), nodes[id].ins[0]);
    }
  }
  return true;
}

bool references_resolve(const Netlist& n) {
  const auto in = [](int index, std::size_t size) {
    return index >= 0 && static_cast<std::size_t>(index) < size;
  };
  const auto operand_ok = [&](const Operand& o) {
    switch (o.kind) {
      case Operand::Kind::kReg:
        return in(o.index, n.regs.size());
      case Operand::Kind::kInput:
        return in(o.index, n.input_names.size());
      case Operand::Kind::kWire:
        return o.index >= 0;  // producer NodeId
      case Operand::Kind::kNone:
      case Operand::Kind::kConst:
        return true;
    }
    return false;
  };
  for (const OutputPort& port : n.outputs) {
    if (!operand_ok(port.source)) return false;
  }
  for (const StateLoad& load : n.state_loads) {
    if (!operand_ok(load.source) || !in(load.dst_reg, n.regs.size())) {
      return false;
    }
  }
  for (const MicroOp& m : n.micro) {
    if (m.step < 0 || m.step >= n.num_steps || m.node < 0) return false;
    if (m.fu < -1 || (m.fu >= 0 && !in(m.fu, n.fus.size()))) return false;
    if (!operand_ok(m.src[0]) || !operand_ok(m.src[1])) return false;
    if (m.dst_reg < -1 || (m.dst_reg >= 0 && !in(m.dst_reg, n.regs.size()))) {
      return false;
    }
  }
  return true;
}

}  // namespace sck::hls

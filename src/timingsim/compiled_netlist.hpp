// Precomputed evaluation schedule for one netlist.
//
// The timing simulator's hot path used to chase `Gate::fanins` vectors (one
// heap allocation per gate) and re-derive per-gate facts on every call.
// CompiledNetlist hoists everything that depends only on the *structure* of
// the netlist into flat arrays built once:
//
//   * a levelized topological schedule (gates grouped by logic depth, which
//     is also a valid forward evaluation order);
//   * CSR-flattened fanin arrays (one contiguous GateId span per gate);
//   * a micro-op table that pre-resolves gate kind x fanin arity, so the
//     bit-sliced kernels dispatch once per gate instead of re-inspecting
//     `Gate` records;
//   * the input-gate index map (gate id -> primary-input position);
//   * a flat value program: the schedule as one contiguous array of
//     {op, out, operand rows} records, so the bit-sliced value pass walks
//     a single stream instead of chasing op / fanin-offset / fanin tables
//     per gate;
//   * an observed-cone mask: when the consumer only reads a subset of nets
//     (the arbiter cones of a PUF), gates outside their transitive fanin
//     are dropped from the schedule entirely.
//
// It also records whether input gates appear in netlist (gate-id) order —
// the invariant the scalar engine's `next_input` cursor silently relied on.
// TimingSimulator now rejects netlists that violate it (see timing_sim.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace pufatt::timingsim {

/// Pre-resolved gate operation: kind with the 2-input common case split out
/// so the evaluation kernels run a tight two-operand path for the gates
/// that dominate real circuits (every gate of the raced adders is 2-input).
enum class BatchOp : std::uint8_t {
  kInput,
  kConst0,
  kConst1,
  kBuf,
  kNot,
  kMux,
  kAnd2,
  kOr2,
  kNand2,
  kNor2,
  kXor2,
  kXnor2,
  kAndN,
  kOrN,
  kNandN,
  kNorN,
  kXorN,
  kXnorN,
};

/// One step of the bit-sliced value pass: gate `out` computed from the
/// value rows `a`, `b`, `c`.  kInput reads input row `a`; kBuf/kNot use
/// `a`; kMux is (select `a`, d0 `b`, d1 `c`); 2-input ops use `a`, `b`;
/// n-ary ops read the fanin range `fanins()[a .. b)`.
struct ValueOp {
  BatchOp op;
  std::uint32_t out;
  std::uint32_t a;
  std::uint32_t b;
  std::uint32_t c;
};

class CompiledNetlist {
 public:
  /// Sentinel for `input_pos` of non-input gates.
  static constexpr std::uint32_t kNotAnInput = 0xFFFFFFFFu;

  /// Compiles the full netlist (every gate observed / scheduled).
  explicit CompiledNetlist(const netlist::Netlist& net);

  /// Compiles only the transitive fanin cone of `observed` gates: gates
  /// outside the cone are never evaluated (their bit-sliced lanes stay zero).
  CompiledNetlist(const netlist::Netlist& net,
                  const std::vector<netlist::GateId>& observed);

  const netlist::Netlist& net() const { return *net_; }
  std::size_t num_gates() const { return kinds_.size(); }
  std::size_t num_inputs() const { return net_->num_inputs(); }
  std::size_t num_levels() const { return level_offsets_.size() - 1; }

  /// True when the k-th kInput gate in gate-id order is `net.inputs()[k]`
  /// for every k — the layout every sequential-cursor consumer assumes.
  bool inputs_in_netlist_order() const { return inputs_in_netlist_order_; }

  /// Scheduled (active) gates in level-major topological order.
  const std::vector<netlist::GateId>& schedule() const { return schedule_; }

  /// CSR offsets into `schedule()` per level (size num_levels()+1).
  const std::vector<std::uint32_t>& level_offsets() const {
    return level_offsets_;
  }

  /// Logic depth of a gate (inputs/constants are level 0).
  std::uint32_t level(netlist::GateId id) const { return level_[id]; }

  /// Observed-cone membership (1 = evaluated by the schedule).
  bool active(netlist::GateId id) const { return active_[id] != 0; }
  std::size_t num_active() const { return schedule_.size(); }

  netlist::GateKind kind(netlist::GateId id) const { return kinds_[id]; }
  BatchOp op(netlist::GateId id) const { return ops_[id]; }

  /// Primary-input position of an input gate, kNotAnInput otherwise.
  std::uint32_t input_pos(netlist::GateId id) const { return input_pos_[id]; }

  /// CSR fanin access: fanins of gate `id` are
  /// `fanins()[fanin_begin(id) .. fanin_begin(id+1))`.
  std::uint32_t fanin_begin(netlist::GateId id) const {
    return fanin_offsets_[id];
  }
  std::uint32_t fanin_count(netlist::GateId id) const {
    return fanin_offsets_[id + 1] - fanin_offsets_[id];
  }
  const std::vector<netlist::GateId>& fanins() const { return fanins_; }

  /// The schedule as value-pass steps, in schedule order.  kConst0 gates
  /// have no step: their words are zeroed once and never written.
  const std::vector<ValueOp>& value_program() const { return value_program_; }

 private:
  void build(const netlist::Netlist& net,
             const std::vector<netlist::GateId>* observed);

  const netlist::Netlist* net_;
  std::vector<netlist::GateKind> kinds_;
  std::vector<BatchOp> ops_;
  std::vector<std::uint32_t> fanin_offsets_;  ///< size num_gates()+1
  std::vector<netlist::GateId> fanins_;
  std::vector<std::uint32_t> input_pos_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> active_;
  std::vector<netlist::GateId> schedule_;
  std::vector<std::uint32_t> level_offsets_;
  std::vector<ValueOp> value_program_;
  bool inputs_in_netlist_order_ = true;
};

}  // namespace pufatt::timingsim

#include "timingsim/compiled_netlist.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pufatt::timingsim {

using netlist::Gate;
using netlist::GateId;
using netlist::GateKind;

namespace {

BatchOp op_for(GateKind kind, std::size_t fanins) {
  const bool two = fanins == 2;
  switch (kind) {
    case GateKind::kInput: return BatchOp::kInput;
    case GateKind::kConst0: return BatchOp::kConst0;
    case GateKind::kConst1: return BatchOp::kConst1;
    case GateKind::kBuf: return BatchOp::kBuf;
    case GateKind::kNot: return BatchOp::kNot;
    case GateKind::kMux: return BatchOp::kMux;
    case GateKind::kAnd: return two ? BatchOp::kAnd2 : BatchOp::kAndN;
    case GateKind::kOr: return two ? BatchOp::kOr2 : BatchOp::kOrN;
    case GateKind::kNand: return two ? BatchOp::kNand2 : BatchOp::kNandN;
    case GateKind::kNor: return two ? BatchOp::kNor2 : BatchOp::kNorN;
    case GateKind::kXor: return two ? BatchOp::kXor2 : BatchOp::kXorN;
    case GateKind::kXnor: return two ? BatchOp::kXnor2 : BatchOp::kXnorN;
  }
  return BatchOp::kBuf;
}

}  // namespace

CompiledNetlist::CompiledNetlist(const netlist::Netlist& net) : net_(&net) {
  build(net, nullptr);
}

CompiledNetlist::CompiledNetlist(const netlist::Netlist& net,
                                 const std::vector<GateId>& observed)
    : net_(&net) {
  build(net, &observed);
}

void CompiledNetlist::build(const netlist::Netlist& net,
                            const std::vector<GateId>* observed) {
  // Compilation is the cold half of a cache miss (cache.build ends up
  // here via the Verifier constructor); a span per compile makes cold
  // starts visible next to the per-batch kernels they amortize into.
  obs::Span span;
  if (obs::global_trace_enabled()) {
    obs::global_registry().counter("sim.compiles").add(1);
    span = obs::global_tracer().span("sim.compile");
  }
  const auto& gates = net.gates();
  const std::size_t n = gates.size();
  kinds_.resize(n);
  ops_.resize(n);
  input_pos_.assign(n, kNotAnInput);
  level_.assign(n, 0);
  fanin_offsets_.assign(n + 1, 0);

  std::size_t total_fanins = 0;
  std::size_t next_input = 0;
  for (std::size_t id = 0; id < n; ++id) {
    const Gate& g = gates[id];
    kinds_[id] = g.kind;
    ops_[id] = op_for(g.kind, g.fanins.size());
    total_fanins += g.fanins.size();
    if (g.kind == GateKind::kInput) {
      // The k-th input gate encountered in id order must be inputs()[k]
      // for the sequential-cursor layout to be valid.
      if (next_input >= net.num_inputs() ||
          net.inputs()[next_input] != static_cast<GateId>(id)) {
        inputs_in_netlist_order_ = false;
      }
      // Record the true position regardless, so diagnostics can name it.
      for (std::size_t k = 0; k < net.num_inputs(); ++k) {
        if (net.inputs()[k] == static_cast<GateId>(id)) {
          input_pos_[id] = static_cast<std::uint32_t>(k);
          break;
        }
      }
      ++next_input;
    }
  }

  fanins_.reserve(total_fanins);
  std::uint32_t offset = 0;
  std::uint32_t max_level = 0;
  for (std::size_t id = 0; id < n; ++id) {
    fanin_offsets_[id] = offset;
    std::uint32_t lvl = 0;
    for (const GateId f : gates[id].fanins) {
      fanins_.push_back(f);
      lvl = std::max(lvl, level_[f] + 1);
    }
    level_[id] = lvl;
    max_level = std::max(max_level, lvl);
    offset += static_cast<std::uint32_t>(gates[id].fanins.size());
  }
  fanin_offsets_[n] = offset;

  // Observed cone: walk fanins backwards from the observed set (gate ids
  // are topological, so a reverse id sweep propagates membership in one
  // pass).  Without an observed set, everything is active.
  if (observed == nullptr) {
    active_.assign(n, 1);
  } else {
    active_.assign(n, 0);
    for (const GateId g : *observed) active_.at(g) = 1;
    for (std::size_t id = n; id-- > 0;) {
      if (active_[id] == 0) continue;
      const auto begin = fanin_offsets_[id];
      const auto end = fanin_offsets_[id + 1];
      for (std::uint32_t k = begin; k < end; ++k) active_[fanins_[k]] = 1;
    }
  }

  // Levelized schedule: counting sort of active gates by level.  Gate ids
  // are already topological, so (level, id) order is too.
  level_offsets_.assign(static_cast<std::size_t>(max_level) + 2, 0);
  std::size_t active_count = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (active_[id] != 0) {
      ++level_offsets_[level_[id] + 1];
      ++active_count;
    }
  }
  for (std::size_t l = 1; l < level_offsets_.size(); ++l) {
    level_offsets_[l] += level_offsets_[l - 1];
  }
  schedule_.resize(active_count);
  std::vector<std::uint32_t> cursor(level_offsets_.begin(),
                                    level_offsets_.end() - 1);
  for (std::size_t id = 0; id < n; ++id) {
    if (active_[id] != 0) {
      schedule_[cursor[level_[id]]++] = static_cast<GateId>(id);
    }
  }

  value_program_.reserve(active_count);
  for (const GateId g : schedule_) {
    const BatchOp op = ops_[g];
    if (op == BatchOp::kConst0) continue;
    const std::uint32_t fb = fanin_offsets_[g];
    const std::uint32_t fe = fanin_offsets_[g + 1];
    ValueOp step{op, g, 0, 0, 0};
    switch (op) {
      case BatchOp::kInput:
        step.a = input_pos_[g];
        break;
      case BatchOp::kConst1:
        break;
      case BatchOp::kAndN:
      case BatchOp::kOrN:
      case BatchOp::kNandN:
      case BatchOp::kNorN:
      case BatchOp::kXorN:
      case BatchOp::kXnorN:
        step.a = fb;
        step.b = fe;
        break;
      default:  // unary, mux and 2-input ops: operands in fanin order
        step.a = fanins_[fb];
        if (fe - fb > 1) step.b = fanins_[fb + 1];
        if (fe - fb > 2) step.c = fanins_[fb + 2];
        break;
    }
    value_program_.push_back(step);
  }
  if (span.active()) {
    span.note("gates", static_cast<double>(n));
    span.note("levels", static_cast<double>(num_levels()));
    span.note("active", static_cast<double>(active_count));
  }
}

}  // namespace pufatt::timingsim

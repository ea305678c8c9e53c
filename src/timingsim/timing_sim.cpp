#include "timingsim/timing_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace pufatt::timingsim {

using netlist::GateId;
using netlist::GateKind;

namespace {

void check_netlist_input_order(const CompiledNetlist& compiled) {
  if (!compiled.inputs_in_netlist_order()) {
    throw std::invalid_argument(
        "TimingSimulator: netlist input gates are permuted relative to "
        "gate-id order (e.g. after Netlist::reorder_inputs); the evaluation "
        "engines bind challenge bits by netlist order and would silently "
        "mis-assign them");
  }
}

}  // namespace

TimingSimulator::TimingSimulator(const netlist::Netlist& net)
    : net_(&net), compiled_(net) {
  check_netlist_input_order(compiled_);
}

TimingSimulator::TimingSimulator(const netlist::Netlist& net,
                                 const std::vector<GateId>& observed)
    : net_(&net), compiled_(net, observed) {
  check_netlist_input_order(compiled_);
}

template <typename DelayOf>
void TimingSimulator::run_impl(const support::BitVector& inputs,
                               std::size_t rise_count, std::size_t fall_count,
                               DelayOf&& delay_of,
                               std::vector<SignalState>& states,
                               const std::vector<double>* input_times_ps) const {
  if (inputs.size() != net_->num_inputs()) {
    throw std::invalid_argument("TimingSimulator::run: wrong input count");
  }
  if (rise_count != net_->num_gates() || fall_count != net_->num_gates()) {
    throw std::invalid_argument("TimingSimulator::run: wrong delay count");
  }
  const CompiledNetlist& cn = compiled_;
  const std::size_t n = cn.num_gates();
  states.resize(n);
  const GateId* fanins = cn.fanins().data();

  // The scalar engine fills every gate (callers inspect arbitrary nets),
  // walking ids in order — already a topological schedule.
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint32_t fb = cn.fanin_begin(static_cast<GateId>(id));
    SignalState& out = states[id];
    bool value = false;
    double determined = 0.0;  // input-side determination time (pre-delay)
    switch (cn.kind(static_cast<GateId>(id))) {
      case GateKind::kInput: {
        const std::uint32_t pos = cn.input_pos(static_cast<GateId>(id));
        out.value = inputs.get(pos);
        out.time_ps = input_times_ps != nullptr ? (*input_times_ps)[pos] : 0.0;
        continue;
      }
      case GateKind::kConst0:
        out = {false, kAlwaysSettled};
        continue;
      case GateKind::kConst1:
        out = {true, kAlwaysSettled};
        continue;
      case GateKind::kBuf: {
        const SignalState& in = states[fanins[fb]];
        value = in.value;
        determined = in.time_ps;
        break;
      }
      case GateKind::kNot: {
        const SignalState& in = states[fanins[fb]];
        value = !in.value;
        determined = in.time_ps;
        break;
      }
      case GateKind::kMux: {
        const SignalState& sel = states[fanins[fb]];
        const SignalState& d0 = states[fanins[fb + 1]];
        const SignalState& d1 = states[fanins[fb + 2]];
        const SignalState& chosen = sel.value ? d1 : d0;
        value = chosen.value;
        if (sel.time_ps == kAlwaysSettled) {
          // Static configuration select (PDL): pure data-path delay.
          determined = chosen.time_ps;
        } else if (d0.value == d1.value) {
          // Output independent of select; settled once both datas are.
          determined = std::max(d0.time_ps, d1.time_ps);
        } else {
          determined = std::max(sel.time_ps, chosen.time_ps);
        }
        break;
      }
      case GateKind::kAnd:
      case GateKind::kNand:
      case GateKind::kOr:
      case GateKind::kNor: {
        const GateKind kind = cn.kind(static_cast<GateId>(id));
        const bool controlling =
            (kind == GateKind::kOr || kind == GateKind::kNor);
        bool any_controlling = false;
        double earliest_controlling = 0.0;
        double latest = kAlwaysSettled;
        const std::uint32_t fe = fb + cn.fanin_count(static_cast<GateId>(id));
        for (std::uint32_t k = fb; k < fe; ++k) {
          const SignalState& in = states[fanins[k]];
          latest = std::max(latest, in.time_ps);
          if (in.value == controlling) {
            if (!any_controlling || in.time_ps < earliest_controlling) {
              earliest_controlling = in.time_ps;
            }
            any_controlling = true;
          }
        }
        const bool raw = any_controlling ? controlling : !controlling;
        const bool inverted =
            (kind == GateKind::kNand || kind == GateKind::kNor);
        value = inverted ? !raw : raw;
        determined = any_controlling ? earliest_controlling : latest;
        break;
      }
      case GateKind::kXor:
      case GateKind::kXnor: {
        bool v = (cn.kind(static_cast<GateId>(id)) == GateKind::kXnor);
        double latest = kAlwaysSettled;
        const std::uint32_t fe = fb + cn.fanin_count(static_cast<GateId>(id));
        for (std::uint32_t k = fb; k < fe; ++k) {
          const SignalState& in = states[fanins[k]];
          v = v != in.value;
          latest = std::max(latest, in.time_ps);
        }
        value = v;
        determined = latest;
        break;
      }
    }
    out.value = value;
    out.time_ps = determined + delay_of(id, value);
  }
}

void TimingSimulator::run(const support::BitVector& inputs,
                          const DelaySet& delays,
                          std::vector<SignalState>& states,
                          const std::vector<double>* input_times_ps) const {
  run_impl(
      inputs, delays.rise_ps.size(), delays.fall_ps.size(),
      [&delays](std::size_t id, bool value) {
        return value ? delays.rise_ps[id] : delays.fall_ps[id];
      },
      states, input_times_ps);
}

void TimingSimulator::run(const support::BitVector& inputs,
                          const std::vector<double>& gate_delays_ps,
                          std::vector<SignalState>& states,
                          const std::vector<double>* input_times_ps) const {
  run_impl(
      inputs, gate_delays_ps.size(), gate_delays_ps.size(),
      [&gate_delays_ps](std::size_t id, bool) { return gate_delays_ps[id]; },
      states, input_times_ps);
}

}  // namespace pufatt::timingsim

// Value-aware settling-time simulation.
//
// For a given input vector and per-gate delays, computes for every net both
// its final logic value and the time at which it settles, using controlling-
// input semantics ("floating mode"):
//   * XOR/XNOR settle when the last input settles;
//   * AND/OR settle at the earliest controlling input (a 0 on an AND, a 1 on
//     an OR) if one exists, else at the latest input;
//   * MUX with a statically-settled select settles when the selected data
//     path settles.
// This is what makes the PUF response genuinely challenge-dependent: carry
// chains are only exercised where the operands actually propagate a carry,
// exactly the mechanism the paper describes ("delay characteristics ...
// depend on the inputs x_{i-1} and x_{i+3} because carry bits ... are
// propagated from the LSB side to the MSB side").
//
// The scalar engine (`run`) below is the exactness reference: it evaluates
// one input vector by walking the CompiledNetlist (CSR fanins) in gate-id
// order.  The bit-sliced engine (bitslice.hpp) evaluates 64 vectors per
// machine word with the same semantics and must match it double for double.
#pragma once

#include <limits>
#include <vector>

#include "netlist/netlist.hpp"
#include "support/bitvec.hpp"
#include "timingsim/compiled_netlist.hpp"

namespace pufatt::timingsim {

/// Settled state of one net.
struct SignalState {
  bool value = false;
  double time_ps = 0.0;
};

/// Time value for nets that are settled "since forever" (constants, static
/// configuration).
inline constexpr double kAlwaysSettled =
    -std::numeric_limits<double>::infinity();

/// Per-gate delays for one evaluation, split by output transition
/// direction.  Rise/fall asymmetry is a first-order property of CMOS
/// gates (PMOS vs NMOS drive) and is what makes the settling time of even
/// a structurally-fixed path depend on the data values it carries — the
/// PUFatt protocol leans on this (its PUF challenges drive the full carry
/// chain; the chip-specific rise/fall mix encodes the challenge).
struct DelaySet {
  std::vector<double> rise_ps;  ///< delay when the gate output is 1
  std::vector<double> fall_ps;  ///< delay when the gate output is 0
};

/// Per-gate, per-lane delays for one batch evaluation (gate-major: lane b
/// of gate g lives at `[g * batch + b]`).  This is the layout the noisy
/// device path uses — every evaluation in a batch jitters its own delay
/// realization (BitSliceEngine's lane-delay mode consumes it).
struct BatchDelays {
  std::size_t batch = 0;
  std::vector<double> rise_ps;
  std::vector<double> fall_ps;
};

/// Reusable simulator for one netlist.  The per-gate delay set changes
/// per evaluation (noise) or per operating point; the netlist does not.
///
/// Construction compiles the netlist (levelized schedule, CSR fanins) and
/// validates that input gates appear in netlist order — the layout the
/// input binding of every evaluation path assumes; a permuted netlist (see
/// Netlist::reorder_inputs) is rejected with std::invalid_argument rather
/// than silently mis-binding challenge bits.
class TimingSimulator {
 public:
  explicit TimingSimulator(const netlist::Netlist& net);

  /// Cone-restricted simulator: its compiled schedule (what a
  /// BitSliceEngine built over compiled() evaluates) holds only the
  /// transitive fanin of `observed` gates.  The scalar `run` still fills
  /// every gate.
  TimingSimulator(const netlist::Netlist& net,
                  const std::vector<netlist::GateId>& observed);

  // `inputs` — value per primary input, in input order.
  // `delays` — rise/fall delay per gate id (inputs/constants ignored).
  // `input_times_ps` — optional arrival time per primary input (defaults
  //   to 0: the synchronized launch the paper's sync logic provides).
  // Results for all gates land in `states` (resized as needed).

  void run(const support::BitVector& inputs, const DelaySet& delays,
           std::vector<SignalState>& states,
           const std::vector<double>* input_times_ps = nullptr) const;

  /// Symmetric delays (rise == fall).
  void run(const support::BitVector& inputs,
           const std::vector<double>& gate_delays_ps,
           std::vector<SignalState>& states,
           const std::vector<double>* input_times_ps = nullptr) const;

  const netlist::Netlist& net() const { return *net_; }
  const CompiledNetlist& compiled() const { return compiled_; }

 private:
  template <typename DelayOf>
  void run_impl(const support::BitVector& inputs, std::size_t rise_count,
                std::size_t fall_count, DelayOf&& delay_of,
                std::vector<SignalState>& states,
                const std::vector<double>* input_times_ps) const;

  const netlist::Netlist* net_;
  CompiledNetlist compiled_;
};

}  // namespace pufatt::timingsim

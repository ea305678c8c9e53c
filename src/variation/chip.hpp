// A manufactured chip instance: a netlist plus one sampled realization of
// process variation, yielding per-gate rise/fall delays under any
// operating point.
//
// The exported DelayTable is exactly the paper's emulation model H: "a
// simple PUF model (e.g., gate-level delay table lookups and delay
// additions) generated during the manufacturing process" — the verifier
// uses it in PUF.Emulate() while the adversary, by assumption, cannot read
// it.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "support/rng.hpp"
#include "timingsim/timing_sim.hpp"
#include "variation/aging.hpp"
#include "variation/delay_model.hpp"
#include "variation/quadtree.hpp"

namespace pufatt::variation {

/// Per-evaluation noise: thermal/supply jitter applied multiplicatively to
/// every gate delay on every evaluation.  This (together with arbiter
/// metastability) is what produces non-zero intra-chip Hamming distance.
struct NoiseParams {
  double delay_jitter_ratio = 0.01;  ///< sigma of the multiplicative jitter
};

/// The emulation model H: enough information to recompute every gate delay
/// of one specific chip at any operating point, with no physical access.
struct DelayTable {
  TechnologyParams tech;
  std::vector<double> intrinsic_ps;  ///< per gate: transistor part at nominal
  std::vector<double> wire_ps;       ///< per gate: wire-RC part at nominal
  std::vector<double> vth_v;         ///< per gate V_th (variation-affected)
  std::vector<double> vth_tempco;    ///< per gate V_th temperature coefficient
  std::vector<double> rise_factor;   ///< per gate rise-delay multiplier
  std::vector<double> fall_factor;   ///< per gate fall-delay multiplier
};

/// Per-gate rise/fall delays at an operating point, computed from a
/// DelayTable (verifier-side emulation path — no chip object needed).
timingsim::DelaySet delays_from_table(const DelayTable& table,
                                      const Environment& env);

/// One fabricated die.
class ChipInstance {
 public:
  /// Samples process variation for `net`: quad-tree systematic V_th shift
  /// by gate placement plus independent per-gate components (random V_th,
  /// wire fraction, V_th tempco, rise/fall asymmetry).  `chip_seed` fully
  /// determines the chip (reproducible manufacturing).
  ChipInstance(const netlist::Netlist& net, const TechnologyParams& tech,
               const QuadTreeConfig& qt_config, std::uint64_t chip_seed);

  const netlist::Netlist& net() const { return *net_; }
  const TechnologyParams& tech() const { return tech_; }

  /// Actual threshold voltage of a gate on this die.
  double vth(netlist::GateId id) const { return vth_[id]; }

  /// Deterministic per-gate delays at `env` (no evaluation noise): the
  /// physical chip's expected timing, also what the emulator computes.
  timingsim::DelaySet nominal_delays(const Environment& env) const;

  /// In-place variant to avoid reallocation in evaluation loops.
  void nominal_delays(const Environment& env, timingsim::DelaySet& out) const;

  /// One noisy evaluation: nominal delays times (1 + N(0, jitter)); the
  /// same per-gate jitter draw applies to the rise and fall delays (it
  /// models a common-mode supply/temperature fluctuation).
  void sample_delays(const timingsim::DelaySet& nominal,
                     const NoiseParams& noise, support::Xoshiro256pp& rng,
                     timingsim::DelaySet& out) const;

  /// `count` independent noisy realizations at once, written gate-major
  /// into the BatchDelays layout the bit-sliced lane-delay mode consumes
  /// (out.rise_ps[g*count+x] is lane x's gate g) — contiguous lane writes,
  /// no per-lane transpose.
  /// Lane x's jitter comes from noise_rngs[x]: exactly one gaussian_fast()
  /// deviate per gate in gate order, zero-delay gates included, so each
  /// lane's stream position is a function of the gate index alone and a
  /// caller may keep using noise_rngs[x] afterwards (AluPuf::eval_batch
  /// continues it for the arbiter draws).  The draws come from one
  /// Xoshiro256pp::gaussian_fill_lanes call, stream-identical to that
  /// per-gate loop.  Same semantics as sample_delays per lane — shared
  /// rise/fall jitter, zeros preserved — but via the fast sampler, so not
  /// stream-compatible with it.
  void sample_delays_batch(const timingsim::DelaySet& nominal,
                           const NoiseParams& noise,
                           support::Xoshiro256pp* noise_rngs,
                           std::size_t count,
                           timingsim::BatchDelays& out) const;

  /// Exports the emulation model H (manufacturer-side enrollment).
  DelayTable export_delay_table() const;

  /// Applies stress-induced aging to one gate: raises its Vth by the
  /// power-law shift for (duty, hours) using this gate's manufacturing
  /// aging coefficient.  Irreversible, like the silicon.
  void apply_stress(netlist::GateId id, double duty, double hours,
                    const AgingParams& params);

  /// Uniform field aging: every gate stressed at the same duty (ambient
  /// operation).  Per-gate coefficients still make the drift non-uniform.
  void age_uniformly(double duty, double hours, const AgingParams& params);

  /// Total accumulated Vth shift of a gate due to aging (V).
  double aging_shift_v(netlist::GateId id) const { return aging_shift_[id]; }

 private:
  const netlist::Netlist* net_;
  TechnologyParams tech_;
  std::vector<double> intrinsic_ps_;  ///< transistor delay part at nominal
  std::vector<double> wire_ps_;       ///< wire-RC delay part at nominal
  std::vector<double> vth_;
  std::vector<double> vth_tempco_;
  std::vector<double> rise_factor_;
  std::vector<double> fall_factor_;
  std::vector<double> aging_coeff_;  ///< per-gate NBTI coefficient (V)
  std::vector<double> aging_shift_;  ///< accumulated Vth shift (V)
};

}  // namespace pufatt::variation

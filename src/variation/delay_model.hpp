// Gate-delay model under process, voltage and temperature variation.
//
// Follows the methodology the paper itself uses for its evaluation:
//  * per-gate threshold-voltage variation, Gaussian with sigma/mu = 0.1 at
//    the 45 nm node (paper Section 4.1, citing Pan et al., DAC 2009);
//  * alpha-power-law delay dependence on supply and threshold voltage
//    (Markovic et al., "Ultralow-power design in near-threshold region",
//    Proc. IEEE 2010 — the paper's delay model reference [23]);
//  * linear V_th temperature dependence plus a mobility-degradation term.
//
// Delay of a gate:
//   d(V, T, Vth) = d_base * (V / V0) * ((V0 - Vth0) / (V - Vth(T)))^alpha
//                  * (T_K / T0_K)^mobility_exp
// with Vth(T) = Vth - vth_temp_coeff * (T - T0).
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace pufatt::variation {

/// Operating point of the device.  The robustness experiments sweep
/// vdd_scale over [0.90, 1.10] and temperature over [-20, +120] C, exactly
/// the corners of the paper's Figure 4.
struct Environment {
  double vdd_scale = 1.0;       ///< multiplier on nominal supply voltage
  double temperature_c = 25.0;  ///< junction temperature in Celsius

  static Environment nominal() { return {}; }
};

/// Technology constants for the simulated 45 nm node.
struct TechnologyParams {
  double vdd_nominal_v = 1.0;     ///< nominal supply
  double vth_nominal_v = 0.40;    ///< mean threshold voltage (mu)
  double vth_sigma_ratio = 0.1;   ///< sigma/mu of V_th variation (paper: 0.1)
  double alpha = 1.3;             ///< alpha-power-law exponent at 45 nm
  double temp_nominal_c = 25.0;   ///< reference temperature
  double vth_temp_coeff = 2.5e-4; ///< mean V_th decrease per Kelvin (V/K)
  /// Per-gate spread of the V_th temperature coefficient: the reason
  /// temperature corners reorder race outcomes instead of scaling all
  /// delays uniformly.
  double vth_temp_coeff_sigma = 0.5e-4;
  double mobility_exp = 1.2;      ///< mobility degradation exponent
  /// Fraction of a gate's nominal delay contributed by wire RC (mean and
  /// per-gate sigma).  Wire delay scales with temperature (metal
  /// resistance) but not with supply voltage — the second mechanism that
  /// makes voltage corners reorder races.
  double wire_fraction_mean = 0.15;
  double wire_fraction_sigma = 0.05;
  double wire_temp_coeff = 0.002;  ///< wire delay increase per Kelvin
  /// Per-gate rise/fall delay asymmetry spread (relative).  PMOS/NMOS
  /// drive mismatch makes a gate's delay depend on its output value, so a
  /// structurally-fixed path (e.g. a full-length carry chain) still has
  /// data-dependent timing — the property the attestation protocol's
  /// challenge construction relies on.
  double rise_fall_asym_sigma = 0.05;
  /// Residual *design-level* asymmetry between "identical" cells (relative
  /// per-gate spread, identical on every die): layout and routing are never
  /// perfectly symmetric, so all chips share a per-bit response bias.  This
  /// is why the paper's raw inter-chip HD sits at 35.9% instead of the
  /// ideal 50% — and what its XOR obfuscation pushes back toward 50%.
  /// ("Automatable design-time optimizations are needed to ensure symmetry
  /// of the delay paths" — the residual after those optimizations.)
  double design_asym_sigma = 0.085;

  /// Standard deviation of V_th variation in volts.
  double vth_sigma_v() const { return vth_nominal_v * vth_sigma_ratio; }
};

/// Nominal (variation-free, 25 C, nominal V) switching delay of a gate in
/// picoseconds, as a function of its kind and fanin count.  Values are
/// representative 45 nm standard-cell delays; only *relative* magnitudes
/// matter for the PUF race.
double base_delay_ps(netlist::GateKind kind, std::size_t fanin_count);

/// Everything scaled_delay_ps and wire_scale need that does not depend on
/// the gate: computed once per operating point, a whole die's delays cost
/// one pow per gate (ChipInstance::nominal_delays, delays_from_table).
struct OperatingPoint {
  OperatingPoint(const Environment& env, const TechnologyParams& tech);

  double vdd;                ///< supply voltage (V)
  double vdd_ratio;          ///< vdd / vdd_nominal
  double delta_temp;         ///< temperature above the reference (K)
  double nominal_overdrive;  ///< vdd_nominal - vth_nominal (V)
  double mobility;           ///< (T / T0)^mobility_exp, in kelvin
  double wire;               ///< wire_scale at this point
  double alpha;              ///< the technology's alpha-power exponent
};

/// Scales a base delay to the given environment and per-gate threshold
/// voltage using the alpha-power law above.  `vth_v` is the gate's actual
/// (variation-affected) threshold voltage at the reference temperature;
/// `vth_temp_coeff` its (variation-affected) temperature coefficient.
double scaled_delay_ps(double base_ps, double vth_v, double vth_temp_coeff,
                       const Environment& env, const TechnologyParams& tech);

/// The same at a precomputed operating point (identical doubles).
double scaled_delay_ps(double base_ps, double vth_v, double vth_temp_coeff,
                       const OperatingPoint& point);

/// Convenience overload using the technology's mean V_th tempco.
double scaled_delay_ps(double base_ps, double vth_v, const Environment& env,
                       const TechnologyParams& tech);

/// Temperature scaling of the wire-RC part of a gate delay (voltage
/// independent).
double wire_scale(const Environment& env, const TechnologyParams& tech);

}  // namespace pufatt::variation

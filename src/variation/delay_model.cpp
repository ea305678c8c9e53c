#include "variation/delay_model.hpp"

#include <cmath>
#include <stdexcept>

namespace pufatt::variation {

double base_delay_ps(netlist::GateKind kind, std::size_t fanin_count) {
  using netlist::GateKind;
  // Unit: picoseconds for a 45 nm standard cell driving a typical load.
  // Multi-input gates get a small per-fanin stack penalty.
  double base = 0.0;
  switch (kind) {
    case GateKind::kInput:
    case GateKind::kConst0:
    case GateKind::kConst1:
      return 0.0;
    case GateKind::kBuf: base = 8.0; break;
    case GateKind::kNot: base = 6.0; break;
    case GateKind::kNand: base = 10.0; break;
    case GateKind::kNor: base = 12.0; break;
    case GateKind::kAnd: base = 14.0; break;   // NAND + INV
    case GateKind::kOr: base = 16.0; break;    // NOR + INV
    case GateKind::kXor: base = 22.0; break;
    case GateKind::kXnor: base = 22.0; break;
    case GateKind::kMux: base = 18.0; break;
  }
  const double extra_fanin =
      fanin_count > 2 ? static_cast<double>(fanin_count - 2) * 3.0 : 0.0;
  return base + extra_fanin;
}

double scaled_delay_ps(double base_ps, double vth_v, const Environment& env,
                       const TechnologyParams& tech) {
  return scaled_delay_ps(base_ps, vth_v, tech.vth_temp_coeff, env, tech);
}

double wire_scale(const Environment& env, const TechnologyParams& tech) {
  return 1.0 + tech.wire_temp_coeff * (env.temperature_c - tech.temp_nominal_c);
}

OperatingPoint::OperatingPoint(const Environment& env,
                               const TechnologyParams& tech)
    : vdd(tech.vdd_nominal_v * env.vdd_scale),
      vdd_ratio(vdd / tech.vdd_nominal_v),
      delta_temp(env.temperature_c - tech.temp_nominal_c),
      nominal_overdrive(tech.vdd_nominal_v - tech.vth_nominal_v),
      mobility(std::pow((env.temperature_c + 273.15) /
                            (tech.temp_nominal_c + 273.15),
                        tech.mobility_exp)),
      wire(wire_scale(env, tech)),
      alpha(tech.alpha) {}

double scaled_delay_ps(double base_ps, double vth_v, double vth_temp_coeff,
                       const Environment& env, const TechnologyParams& tech) {
  return scaled_delay_ps(base_ps, vth_v, vth_temp_coeff,
                         OperatingPoint(env, tech));
}

double scaled_delay_ps(double base_ps, double vth_v, double vth_temp_coeff,
                       const OperatingPoint& point) {
  const double vth_t = vth_v - vth_temp_coeff * point.delta_temp;
  const double overdrive = point.vdd - vth_t;
  if (overdrive <= 0.0) {
    throw std::domain_error("scaled_delay_ps: gate does not switch (V <= Vth)");
  }
  return base_ps * point.vdd_ratio *
         std::pow(point.nominal_overdrive / overdrive, point.alpha) *
         point.mobility;
}

}  // namespace pufatt::variation

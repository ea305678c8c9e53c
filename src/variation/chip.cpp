#include "variation/chip.hpp"

#include <algorithm>

namespace pufatt::variation {

namespace {

/// Per-gate rise/fall delays of a die at `env`, from the per-gate fields
/// that DelayTable and ChipInstance both hold: the voltage/temperature-
/// scaled transistor part plus the temperature-only-scaled wire-RC part,
/// times the rise/fall factor, and 0 for delay-free gates (inputs,
/// constants).  The operating point's factors are computed once per call.
void die_delays(const TechnologyParams& tech, const Environment& env,
                const std::vector<double>& intrinsic,
                const std::vector<double>& wire,
                const std::vector<double>& vth,
                const std::vector<double>& tempco,
                const std::vector<double>& rise_factor,
                const std::vector<double>& fall_factor,
                timingsim::DelaySet& out) {
  const OperatingPoint point(env, tech);
  const std::size_t n = intrinsic.size();
  out.rise_ps.resize(n);
  out.fall_ps.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (intrinsic[i] > 0.0 || wire[i] > 0.0) {
      const double base =
          scaled_delay_ps(intrinsic[i], vth[i], tempco[i], point) +
          wire[i] * point.wire;
      out.rise_ps[i] = base * rise_factor[i];
      out.fall_ps[i] = base * fall_factor[i];
    } else {
      out.rise_ps[i] = 0.0;
      out.fall_ps[i] = 0.0;
    }
  }
}

}  // namespace

timingsim::DelaySet delays_from_table(const DelayTable& table,
                                      const Environment& env) {
  timingsim::DelaySet out;
  die_delays(table.tech, env, table.intrinsic_ps, table.wire_ps,
             table.vth_v, table.vth_tempco, table.rise_factor,
             table.fall_factor, out);
  return out;
}

ChipInstance::ChipInstance(const netlist::Netlist& net,
                           const TechnologyParams& tech,
                           const QuadTreeConfig& qt_config,
                           std::uint64_t chip_seed)
    : net_(&net), tech_(tech) {
  support::Xoshiro256pp rng(chip_seed);
  // Design-level asymmetry: drawn from a *fixed* seed, so every die of the
  // same netlist shares the identical skew pattern (it lives in the layout,
  // not in the fab lottery).
  support::Xoshiro256pp design_rng(0xDE51'6E5Eu);
  const QuadTreeSample spatial(qt_config, tech.vth_sigma_v(), rng);

  const auto& gates = net.gates();
  intrinsic_ps_.resize(gates.size());
  wire_ps_.resize(gates.size());
  vth_.resize(gates.size());
  vth_tempco_.resize(gates.size());
  rise_factor_.resize(gates.size());
  fall_factor_.resize(gates.size());
  aging_coeff_.resize(gates.size());
  aging_shift_.assign(gates.size(), 0.0);
  for (std::size_t id = 0; id < gates.size(); ++id) {
    const auto& g = gates[id];
    const double design_skew =
        std::clamp(design_rng.gaussian(0.0, tech.design_asym_sigma), -0.3, 0.3);
    const double base =
        base_delay_ps(g.kind, g.fanins.size()) * (1.0 + design_skew);
    // Split nominal delay into a transistor part and a wire-RC part; the
    // wire share varies per gate (routing is never uniform).
    const double wire_fraction =
        std::clamp(rng.gaussian(tech.wire_fraction_mean,
                                tech.wire_fraction_sigma),
                   0.0, 0.5);
    intrinsic_ps_[id] = base * (1.0 - wire_fraction);
    wire_ps_[id] = base * wire_fraction;
    vth_[id] = tech.vth_nominal_v +
               spatial.systematic_shift(g.place.x, g.place.y) +
               rng.gaussian(0.0, spatial.random_sigma());
    vth_tempco_[id] =
        rng.gaussian(tech.vth_temp_coeff, tech.vth_temp_coeff_sigma);
    // PMOS/NMOS drive mismatch: antisymmetric so the mean delay is
    // preserved.
    const double asym =
        std::clamp(rng.gaussian(0.0, tech.rise_fall_asym_sigma), -0.3, 0.3);
    rise_factor_[id] = 1.0 + asym;
    fall_factor_[id] = 1.0 - asym;
    const AgingParams aging_defaults;
    aging_coeff_[id] = std::max(
        0.0, rng.gaussian(aging_defaults.coeff_v,
                          aging_defaults.coeff_v *
                              aging_defaults.coeff_sigma_ratio));
  }
}

void ChipInstance::apply_stress(netlist::GateId id, double duty, double hours,
                                const AgingParams& params) {
  const double shift = aging_vth_shift(aging_coeff_[id], duty, hours, params);
  aging_shift_[id] += shift;
  vth_[id] += shift;
}

void ChipInstance::age_uniformly(double duty, double hours,
                                 const AgingParams& params) {
  for (std::size_t id = 0; id < vth_.size(); ++id) {
    if (intrinsic_ps_[id] > 0.0 || wire_ps_[id] > 0.0) {
      apply_stress(static_cast<netlist::GateId>(id), duty, hours, params);
    }
  }
}

timingsim::DelaySet ChipInstance::nominal_delays(const Environment& env) const {
  timingsim::DelaySet out;
  nominal_delays(env, out);
  return out;
}

void ChipInstance::nominal_delays(const Environment& env,
                                  timingsim::DelaySet& out) const {
  die_delays(tech_, env, intrinsic_ps_, wire_ps_, vth_, vth_tempco_,
             rise_factor_, fall_factor_, out);
}

void ChipInstance::sample_delays(const timingsim::DelaySet& nominal,
                                 const NoiseParams& noise,
                                 support::Xoshiro256pp& rng,
                                 timingsim::DelaySet& out) const {
  const std::size_t n = nominal.rise_ps.size();
  out.rise_ps.resize(n);
  out.fall_ps.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double jitter = 1.0 + rng.gaussian(0.0, noise.delay_jitter_ratio);
    out.rise_ps[i] = nominal.rise_ps[i] <= 0.0 ? 0.0 : nominal.rise_ps[i] * jitter;
    out.fall_ps[i] = nominal.fall_ps[i] <= 0.0 ? 0.0 : nominal.fall_ps[i] * jitter;
  }
}

void ChipInstance::sample_delays_batch(const timingsim::DelaySet& nominal,
                                       const NoiseParams& noise,
                                       support::Xoshiro256pp* noise_rngs,
                                       std::size_t count,
                                       timingsim::BatchDelays& out) const {
  const std::size_t n = nominal.rise_ps.size();
  out.batch = count;
  out.rise_ps.resize(n * count);
  out.fall_ps.resize(n * count);
  // The lane fill writes each lane's jitter factor 1 + ratio * z into the
  // gate-major layout; the rise/fall scaling then runs in place.
  support::Xoshiro256pp::gaussian_fill_lanes(noise_rngs, count, n,
                                             out.rise_ps.data(), 1.0,
                                             noise.delay_jitter_ratio);
  for (std::size_t g = 0; g < n; ++g) {
    const double rise = nominal.rise_ps[g];
    const double fall = nominal.fall_ps[g];
    double* rise_row = out.rise_ps.data() + g * count;
    double* fall_row = out.fall_ps.data() + g * count;
    for (std::size_t x = 0; x < count; ++x) {
      const double jitter = rise_row[x];
      rise_row[x] = rise <= 0.0 ? 0.0 : rise * jitter;
      fall_row[x] = fall <= 0.0 ? 0.0 : fall * jitter;
    }
  }
}

DelayTable ChipInstance::export_delay_table() const {
  return DelayTable{tech_,        intrinsic_ps_, wire_ps_,    vth_,
                    vth_tempco_,  rise_factor_,  fall_factor_};
}

}  // namespace pufatt::variation

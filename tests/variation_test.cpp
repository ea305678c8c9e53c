#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "netlist/builder.hpp"
#include "support/stats.hpp"
#include "variation/chip.hpp"
#include "variation/delay_model.hpp"
#include "variation/quadtree.hpp"

namespace pufatt::variation {
namespace {

using netlist::GateKind;

// ------------------------------------------------------------- Delay model

TEST(DelayModel, InputsAndConstantsAreFree) {
  EXPECT_DOUBLE_EQ(base_delay_ps(GateKind::kInput, 0), 0.0);
  EXPECT_DOUBLE_EQ(base_delay_ps(GateKind::kConst0, 0), 0.0);
  EXPECT_DOUBLE_EQ(base_delay_ps(GateKind::kConst1, 0), 0.0);
}

TEST(DelayModel, XorSlowerThanNand) {
  EXPECT_GT(base_delay_ps(GateKind::kXor, 2), base_delay_ps(GateKind::kNand, 2));
}

TEST(DelayModel, FaninStackPenalty) {
  EXPECT_GT(base_delay_ps(GateKind::kAnd, 4), base_delay_ps(GateKind::kAnd, 2));
}

TEST(DelayModel, NominalConditionsIdentity) {
  const TechnologyParams tech;
  const double d =
      scaled_delay_ps(10.0, tech.vth_nominal_v, Environment::nominal(), tech);
  EXPECT_NEAR(d, 10.0, 1e-9);
}

TEST(DelayModel, LowerVoltageSlower) {
  const TechnologyParams tech;
  Environment low, high;
  low.vdd_scale = 0.9;
  high.vdd_scale = 1.1;
  const double d_low = scaled_delay_ps(10.0, tech.vth_nominal_v, low, tech);
  const double d_high = scaled_delay_ps(10.0, tech.vth_nominal_v, high, tech);
  EXPECT_GT(d_low, 10.0);
  EXPECT_LT(d_high, 10.0);
}

TEST(DelayModel, HigherVthSlower) {
  const TechnologyParams tech;
  const auto env = Environment::nominal();
  EXPECT_GT(scaled_delay_ps(10.0, tech.vth_nominal_v + 0.05, env, tech),
            scaled_delay_ps(10.0, tech.vth_nominal_v, env, tech));
}

TEST(DelayModel, TemperatureEffectsArePartiallyCompensating) {
  // Hot: mobility degrades (slower) but Vth drops (faster).  Net effect at
  // nominal voltage should be modest — within tens of percent across the
  // paper's full -20..120C range.
  const TechnologyParams tech;
  Environment cold, hot;
  cold.temperature_c = -20.0;
  hot.temperature_c = 120.0;
  const double d_cold = scaled_delay_ps(10.0, tech.vth_nominal_v, cold, tech);
  const double d_hot = scaled_delay_ps(10.0, tech.vth_nominal_v, hot, tech);
  EXPECT_GT(d_cold, 5.0);
  EXPECT_LT(d_cold, 15.0);
  EXPECT_GT(d_hot, 5.0);
  EXPECT_LT(d_hot, 15.0);
}

TEST(DelayModel, ThrowsWhenGateCannotSwitch) {
  const TechnologyParams tech;
  Environment env;
  env.vdd_scale = 0.3;  // 0.3 V supply < Vth
  EXPECT_THROW(scaled_delay_ps(10.0, tech.vth_nominal_v, env, tech),
               std::domain_error);
}

// ---------------------------------------------------------------- Quad-tree

TEST(QuadTree, RejectsBadConfig) {
  support::Xoshiro256pp rng(1);
  EXPECT_THROW(QuadTreeSample({.levels = 0}, 0.04, rng), std::invalid_argument);
  EXPECT_THROW(QuadTreeSample({.levels = 2, .die_size = -1.0}, 0.04, rng),
               std::invalid_argument);
  QuadTreeConfig bad;
  bad.systematic_fraction = 1.5;
  EXPECT_THROW(QuadTreeSample(bad, 0.04, rng), std::invalid_argument);
}

TEST(QuadTree, VarianceBudgetSplit) {
  support::Xoshiro256pp rng(2);
  QuadTreeConfig config;
  config.systematic_fraction = 0.5;
  const double sigma = 0.04;
  const QuadTreeSample sample(config, sigma, rng);
  EXPECT_NEAR(sample.random_sigma(), sigma * std::sqrt(0.5), 1e-12);
}

TEST(QuadTree, NearbyPointsCorrelated) {
  // Points in the same smallest quadrant share every level deviate.
  support::Xoshiro256pp rng(3);
  const QuadTreeConfig config{.levels = 4, .die_size = 64.0};
  const QuadTreeSample sample(config, 0.04, rng);
  const double a = sample.systematic_shift(10.0, 10.0);
  const double b = sample.systematic_shift(10.5, 10.5);
  EXPECT_DOUBLE_EQ(a, b);  // same 4x4-unit leaf cell
}

TEST(QuadTree, FarPointsUsuallyDiffer) {
  support::Xoshiro256pp rng(4);
  const QuadTreeConfig config{.levels = 4, .die_size = 64.0};
  const QuadTreeSample sample(config, 0.04, rng);
  EXPECT_NE(sample.systematic_shift(1.0, 1.0),
            sample.systematic_shift(60.0, 60.0));
}

TEST(QuadTree, ShiftDistributionAcrossChips) {
  // Across many chips the systematic shift at a fixed point is Gaussian
  // with variance = systematic fraction of the total.
  support::OnlineStats stats;
  const QuadTreeConfig config;
  const double sigma = 0.04;
  for (int chip = 0; chip < 4000; ++chip) {
    support::Xoshiro256pp rng(1000 + chip);
    const QuadTreeSample sample(config, sigma, rng);
    stats.add(sample.systematic_shift(32.0, 32.0));
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.003);
  EXPECT_NEAR(stats.stddev(), sigma * std::sqrt(config.systematic_fraction),
              0.003);
}

TEST(QuadTree, ClampsOutOfDiePositions) {
  support::Xoshiro256pp rng(5);
  const QuadTreeSample sample({.levels = 3, .die_size = 8.0}, 0.04, rng);
  EXPECT_NO_THROW(sample.systematic_shift(-5.0, 100.0));
  EXPECT_DOUBLE_EQ(sample.systematic_shift(-5.0, -5.0),
                   sample.systematic_shift(0.0, 0.0));
}

// ------------------------------------------------------------ ChipInstance

class ChipFixture : public ::testing::Test {
 protected:
  ChipFixture() : circuit_(netlist::build_alu_puf_circuit(8)) {}
  netlist::AluPufCircuit circuit_;
  TechnologyParams tech_;
  QuadTreeConfig qt_;
};

TEST_F(ChipFixture, SameSeedSameChip) {
  const ChipInstance a(circuit_.net, tech_, qt_, 42);
  const ChipInstance b(circuit_.net, tech_, qt_, 42);
  for (std::size_t g = 0; g < circuit_.net.num_gates(); ++g) {
    EXPECT_DOUBLE_EQ(a.vth(static_cast<netlist::GateId>(g)),
                     b.vth(static_cast<netlist::GateId>(g)));
  }
}

TEST_F(ChipFixture, DifferentSeedsDifferentChips) {
  const ChipInstance a(circuit_.net, tech_, qt_, 42);
  const ChipInstance b(circuit_.net, tech_, qt_, 43);
  int same = 0;
  int logic = 0;
  for (std::size_t g = 0; g < circuit_.net.num_gates(); ++g) {
    const auto id = static_cast<netlist::GateId>(g);
    if (circuit_.net.gate(id).kind == netlist::GateKind::kInput) continue;
    ++logic;
    if (a.vth(id) == b.vth(id)) ++same;
  }
  EXPECT_LT(same, logic / 10);
}

TEST_F(ChipFixture, VthDistributionMatchesSigma) {
  support::OnlineStats stats;
  for (int chip = 0; chip < 200; ++chip) {
    const ChipInstance c(circuit_.net, tech_, qt_, 7000 + chip);
    for (std::size_t g = 0; g < circuit_.net.num_gates(); ++g) {
      const auto id = static_cast<netlist::GateId>(g);
      if (circuit_.net.gate(id).kind == netlist::GateKind::kInput) continue;
      stats.add(c.vth(id));
    }
  }
  EXPECT_NEAR(stats.mean(), tech_.vth_nominal_v, 0.002);
  // Within-chip samples are correlated; across 200 chips the overall sigma
  // should approach the configured total.
  EXPECT_NEAR(stats.stddev(), tech_.vth_sigma_v(), 0.01);
}

TEST_F(ChipFixture, NominalDelaysPositiveForLogic) {
  const ChipInstance chip(circuit_.net, tech_, qt_, 1);
  const auto delays = chip.nominal_delays(Environment::nominal());
  for (std::size_t g = 0; g < circuit_.net.num_gates(); ++g) {
    const auto kind = circuit_.net.gate(static_cast<netlist::GateId>(g)).kind;
    if (kind == netlist::GateKind::kInput ||
        kind == netlist::GateKind::kConst0) {
      EXPECT_DOUBLE_EQ(delays.rise_ps[g], 0.0);
      EXPECT_DOUBLE_EQ(delays.fall_ps[g], 0.0);
    } else {
      EXPECT_GT(delays.rise_ps[g], 0.0);
      EXPECT_GT(delays.fall_ps[g], 0.0);
    }
  }
}

TEST_F(ChipFixture, RiseFallAsymmetryPreservesMeanAndVaries) {
  const ChipInstance chip(circuit_.net, tech_, qt_, 2);
  const auto delays = chip.nominal_delays(Environment::nominal());
  support::OnlineStats asym;
  for (std::size_t g = 0; g < circuit_.net.num_gates(); ++g) {
    const double rise = delays.rise_ps[g];
    const double fall = delays.fall_ps[g];
    if (rise <= 0.0) continue;
    // rise = base*(1+a), fall = base*(1-a): the mean is asymmetry-free.
    asym.add((rise - fall) / (rise + fall));
  }
  EXPECT_NEAR(asym.mean(), 0.0, 0.02);
  EXPECT_NEAR(asym.stddev(), tech_.rise_fall_asym_sigma, 0.02);
}

TEST_F(ChipFixture, SampleDelaysJitterAroundNominal) {
  const ChipInstance chip(circuit_.net, tech_, qt_, 1);
  const auto nominal = chip.nominal_delays(Environment::nominal());
  support::Xoshiro256pp rng(9);
  const NoiseParams noise{.delay_jitter_ratio = 0.02};
  timingsim::DelaySet noisy;
  support::OnlineStats rel;
  for (int eval = 0; eval < 200; ++eval) {
    chip.sample_delays(nominal, noise, rng, noisy);
    for (std::size_t g = 0; g < nominal.rise_ps.size(); ++g) {
      if (nominal.rise_ps[g] > 0.0) {
        rel.add(noisy.rise_ps[g] / nominal.rise_ps[g] - 1.0);
        // The same jitter draw applies to rise and fall.
        EXPECT_NEAR(noisy.fall_ps[g] / nominal.fall_ps[g],
                    noisy.rise_ps[g] / nominal.rise_ps[g], 1e-12);
      }
    }
  }
  EXPECT_NEAR(rel.mean(), 0.0, 0.001);
  EXPECT_NEAR(rel.stddev(), 0.02, 0.002);
}

TEST_F(ChipFixture, DelayTableEmulationMatchesChipExactly) {
  // The verifier's model H must reproduce the chip's nominal delays at any
  // operating point — this is what makes PUF.Emulate() possible.  Both
  // compute the operating point's factors once per call; they must still
  // be, bit for bit, the delay model's formula evaluated per gate with
  // nothing hoisted, at every V/T corner of Figure 4.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto formula = [](const DelayTable& t, std::size_t g,
                          const Environment& env) {
    const TechnologyParams& tech = t.tech;
    const double vdd = tech.vdd_nominal_v * env.vdd_scale;
    const double vth_t =
        t.vth_v[g] -
        t.vth_tempco[g] * (env.temperature_c - tech.temp_nominal_c);
    const double transistor =
        t.intrinsic_ps[g] * (vdd / tech.vdd_nominal_v) *
        std::pow((tech.vdd_nominal_v - tech.vth_nominal_v) / (vdd - vth_t),
                 tech.alpha) *
        std::pow((env.temperature_c + 273.15) / (tech.temp_nominal_c + 273.15),
                 tech.mobility_exp);
    return transistor +
           t.wire_ps[g] * (1.0 + tech.wire_temp_coeff *
                                     (env.temperature_c - tech.temp_nominal_c));
  };
  for (const std::uint64_t seed : {77u, 78u, 79u}) {
    const ChipInstance chip(circuit_.net, tech_, qt_, seed);
    const DelayTable table = chip.export_delay_table();
    for (const double vdd : {0.9, 1.0, 1.1}) {
      for (const double temp : {-20.0, 25.0, 120.0}) {
        const Environment env{vdd, temp};
        const auto chip_delays = chip.nominal_delays(env);
        const auto emulated = delays_from_table(table, env);
        const std::size_t n = table.intrinsic_ps.size();
        ASSERT_EQ(chip_delays.rise_ps.size(), n);
        ASSERT_EQ(chip_delays.fall_ps.size(), n);
        ASSERT_EQ(emulated.rise_ps.size(), n);
        ASSERT_EQ(emulated.fall_ps.size(), n);
        for (std::size_t g = 0; g < n; ++g) {
          double rise = 0.0;
          double fall = 0.0;
          if (table.intrinsic_ps[g] > 0.0 || table.wire_ps[g] > 0.0) {
            const double base = formula(table, g, env);
            rise = base * table.rise_factor[g];
            fall = base * table.fall_factor[g];
          }
          SCOPED_TRACE(::testing::Message() << "gate " << g << " at V x" << vdd
                                            << ", " << temp << " C");
          EXPECT_EQ(bits(emulated.rise_ps[g]), bits(rise));
          EXPECT_EQ(bits(emulated.fall_ps[g]), bits(fall));
          EXPECT_EQ(bits(chip_delays.rise_ps[g]), bits(rise));
          EXPECT_EQ(bits(chip_delays.fall_ps[g]), bits(fall));
        }
      }
    }
  }
}

TEST_F(ChipFixture, AdjacentAlusShareSystematicVariation) {
  // The per-gate Vth difference between matched gates of ALU0/ALU1 should
  // have *smaller* spread than between unrelated chips: systematic part is
  // common mode because the ALUs sit in adjacent rows.
  support::OnlineStats within, across;
  const std::size_t gates_per_alu = 8 * 5;  // 5 gates per full adder
  for (int chip_idx = 0; chip_idx < 50; ++chip_idx) {
    const ChipInstance chip(circuit_.net, tech_, qt_, 300 + chip_idx);
    const ChipInstance other(circuit_.net, tech_, qt_, 900 + chip_idx);
    // ALU gates follow the 17 inputs + 1 const in creation order.
    const std::size_t alu0_base = 16 + 1;
    const std::size_t alu1_base = alu0_base + gates_per_alu;
    for (std::size_t g = 0; g < gates_per_alu; ++g) {
      within.add(chip.vth(static_cast<netlist::GateId>(alu0_base + g)) -
                 chip.vth(static_cast<netlist::GateId>(alu1_base + g)));
      across.add(chip.vth(static_cast<netlist::GateId>(alu0_base + g)) -
                 other.vth(static_cast<netlist::GateId>(alu0_base + g)));
    }
  }
  EXPECT_LT(within.stddev(), across.stddev());
}

}  // namespace
}  // namespace pufatt::variation

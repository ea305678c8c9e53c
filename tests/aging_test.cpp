#include <gtest/gtest.h>

#include <vector>

#include "alupuf/aging_tuner.hpp"
#include "alupuf/alu_puf.hpp"
#include "netlist/builder.hpp"
#include "support/stats.hpp"
#include "variation/aging.hpp"
#include "variation/chip.hpp"

namespace pufatt {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

// ------------------------------------------------------------ shift model

TEST(AgingModel, ZeroStressZeroShift) {
  const variation::AgingParams params;
  EXPECT_DOUBLE_EQ(variation::aging_vth_shift(4e-3, 0.0, 100.0, params), 0.0);
  EXPECT_DOUBLE_EQ(variation::aging_vth_shift(4e-3, 1.0, 0.0, params), 0.0);
}

TEST(AgingModel, PowerLawMonotoneAndSublinear) {
  const variation::AgingParams params;
  const double s1 = variation::aging_vth_shift(4e-3, 1.0, 100.0, params);
  const double s2 = variation::aging_vth_shift(4e-3, 1.0, 1000.0, params);
  EXPECT_GT(s2, s1);
  EXPECT_LT(s2, 10.0 * s1);  // sublinear in time (exponent < 1)
}

TEST(AgingModel, DutyScalesStress) {
  const variation::AgingParams params;
  EXPECT_LT(variation::aging_vth_shift(4e-3, 0.25, 100.0, params),
            variation::aging_vth_shift(4e-3, 1.0, 100.0, params));
}

TEST(AgingModel, RejectsBadInputs) {
  const variation::AgingParams params;
  EXPECT_THROW(variation::aging_vth_shift(4e-3, -0.1, 1.0, params),
               std::invalid_argument);
  EXPECT_THROW(variation::aging_vth_shift(4e-3, 1.1, 1.0, params),
               std::invalid_argument);
  EXPECT_THROW(variation::aging_vth_shift(4e-3, 1.0, -1.0, params),
               std::invalid_argument);
}

// ------------------------------------------------------------ chip aging

class AgingChipFixture : public ::testing::Test {
 protected:
  AgingChipFixture() : circuit_(netlist::build_alu_puf_circuit(8)) {}
  netlist::AluPufCircuit circuit_;
  variation::TechnologyParams tech_;
  variation::QuadTreeConfig qt_;
  variation::AgingParams aging_;
};

TEST_F(AgingChipFixture, StressRaisesVthAndDelay) {
  variation::ChipInstance chip(circuit_.net, tech_, qt_, 9);
  const auto gate = circuit_.race0[0];
  const double vth_before = chip.vth(gate);
  const auto delays_before = chip.nominal_delays({});
  chip.apply_stress(gate, 1.0, 1000.0, aging_);
  EXPECT_GT(chip.vth(gate), vth_before);
  EXPECT_GT(chip.aging_shift_v(gate), 0.0);
  const auto delays_after = chip.nominal_delays({});
  EXPECT_GT(delays_after.rise_ps[gate], delays_before.rise_ps[gate]);
  EXPECT_GT(delays_after.fall_ps[gate], delays_before.fall_ps[gate]);
}

TEST_F(AgingChipFixture, StressAccumulates) {
  variation::ChipInstance chip(circuit_.net, tech_, qt_, 10);
  const auto gate = circuit_.race0[1];
  chip.apply_stress(gate, 1.0, 100.0, aging_);
  const double first = chip.aging_shift_v(gate);
  chip.apply_stress(gate, 1.0, 100.0, aging_);
  EXPECT_NEAR(chip.aging_shift_v(gate), 2.0 * first, 1e-12);
}

TEST_F(AgingChipFixture, UniformAgingShiftsEveryLogicGate) {
  variation::ChipInstance chip(circuit_.net, tech_, qt_, 11);
  chip.age_uniformly(0.5, 10'000.0, aging_);
  std::size_t shifted = 0;
  for (std::size_t g = 0; g < circuit_.net.num_gates(); ++g) {
    if (chip.aging_shift_v(static_cast<netlist::GateId>(g)) > 0.0) ++shifted;
  }
  EXPECT_EQ(shifted, circuit_.net.logic_gate_count());
}

TEST_F(AgingChipFixture, AgingCoefficientsVaryPerGate) {
  // Two gates under identical stress drift differently (fab lottery on the
  // NBTI coefficient) — this is what slowly degrades a stale enrollment.
  variation::ChipInstance chip(circuit_.net, tech_, qt_, 12);
  chip.age_uniformly(1.0, 1000.0, aging_);
  const double a = chip.aging_shift_v(circuit_.race0[0]);
  const double b = chip.aging_shift_v(circuit_.race0[1]);
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------ PUF aging

TEST(AluPufAging, UniformAgingDriftsResponses) {
  alupuf::AluPufConfig config;
  config.width = 32;
  alupuf::AluPuf puf(config, 77);
  const alupuf::AluPufEmulator fresh_model(32, puf.export_model());
  Xoshiro256pp rng(13);
  std::vector<BitVector> challenges;
  for (int t = 0; t < 150; ++t) {
    challenges.push_back(BitVector::random(64, rng));
  }
  const auto env = variation::Environment::nominal();
  // Mean HD to the enrollment-time model over 8 noisy evaluations of each
  // challenge.  Even the unaged die sits ~2.3-2.6 bits from its own model
  // (evaluation noise), so drift must be measured against that floor.
  const auto mean_hd = [&] {
    support::OnlineStats hd;
    for (const auto& c : challenges) {
      for (int k = 0; k < 8; ++k) {
        hd.add(static_cast<double>(
            fresh_model.eval(c).hamming_distance(puf.eval(c, env, rng))));
      }
    }
    return hd.mean();
  };
  const double unaged = mean_hd();

  // Ten years at moderate duty: responses drift measurably versus the
  // enrollment-time model, but far less than inter-chip distance.  Over
  // chips 77/78 x RNG seeds 13-20 the aged mean exceeded the unaged one by
  // 0.21-0.69 bits, and a second unaged pass (a device that ignores
  // age_uniformly) by -0.10-0.11 bits.
  puf.age_uniformly(0.5, 10.0 * 365 * 24, {});
  const double aged = mean_hd();
  EXPECT_GT(aged, unaged + 0.15);  // staleness is visible above the noise...
  EXPECT_LT(aged, 10.0);           // ...but nowhere near a different chip
}

TEST(AluPufAging, ReenrollmentRestoresAgreement) {
  alupuf::AluPufConfig config;
  config.width = 32;
  alupuf::AluPuf puf(config, 78);
  Xoshiro256pp rng(14);
  puf.age_uniformly(0.5, 10.0 * 365 * 24, {});
  const alupuf::AluPufEmulator refreshed(32, puf.export_model());
  support::OnlineStats hd;
  const auto env = variation::Environment::nominal();
  for (int t = 0; t < 150; ++t) {
    const auto c = BitVector::random(64, rng);
    hd.add(static_cast<double>(
        refreshed.eval(c).hamming_distance(puf.eval(c, env, rng))));
  }
  EXPECT_LT(hd.mean(), 3.0);  // back to the noise floor
}

TEST(AluPufAging, StageStressWidensThatBitsMargin) {
  alupuf::AluPufConfig config;
  config.width = 16;
  alupuf::AluPuf puf(config, 79);
  Xoshiro256pp rng(15);
  const auto challenge = BitVector::random(32, rng);
  const auto env = variation::Environment::nominal();
  const double before = puf.race_deltas(challenge, env)[5];
  // Slow ALU1's stage 5: delta = t1 - t0 must move positive.
  puf.apply_stage_stress(5, /*alu1=*/true, 1.0, 2000.0, {});
  const double after = puf.race_deltas(challenge, env)[5];
  EXPECT_GT(after, before);
}

TEST(AluPufAging, StageStressValidatesBit) {
  alupuf::AluPufConfig config;
  config.width = 8;
  alupuf::AluPuf puf(config, 80);
  EXPECT_THROW(puf.apply_stage_stress(8, true, 1.0, 1.0, {}),
               std::invalid_argument);
}

// --------------------------------------------------------------- tuner

TEST(AgingTuner, ImprovesStability) {
  alupuf::AluPufConfig config;
  config.width = 32;
  alupuf::AluPuf puf(config, 555);
  Xoshiro256pp rng(16);
  const auto report = alupuf::tune_by_aging(puf, {}, rng);
  EXPECT_GT(report.stress_actions, 0u);
  EXPECT_GT(report.mean_abs_margin_after, report.mean_abs_margin_before);
  EXPECT_LT(report.flip_rate_after, report.flip_rate_before * 0.8)
      << "tuning should cut the repeat-eval flip rate substantially";
}

TEST(AgingTuner, TunedChipStillVerifiesAfterReenrollment) {
  // The tuning -> enroll order matters: H is extracted from the tuned die.
  alupuf::AluPufConfig config;
  config.width = 32;
  Xoshiro256pp rng(17);
  alupuf::AluPuf puf(config, 556);
  alupuf::tune_by_aging(puf, {}, rng);
  const alupuf::AluPufEmulator tuned_model(32, puf.export_model());
  support::OnlineStats hd;
  const auto env = variation::Environment::nominal();
  for (int t = 0; t < 100; ++t) {
    const auto c = BitVector::random(64, rng);
    hd.add(static_cast<double>(
        tuned_model.eval(c).hamming_distance(puf.eval(c, env, rng))));
  }
  EXPECT_LT(hd.mean(), 2.5);
}

TEST(AgingTuner, IdempotentOnceStable) {
  alupuf::AluPufConfig config;
  config.width = 16;
  alupuf::AluPuf puf(config, 557);
  Xoshiro256pp rng(18);
  alupuf::tune_by_aging(puf, {}, rng);
  const auto second = alupuf::tune_by_aging(puf, {}, rng);
  // After one full tuning pass, most bits sit above threshold: the second
  // pass needs far fewer stress actions than a full sweep would
  // (16 bits x 4 rounds = 64 ceiling; residual churn stays well below it).
  EXPECT_LT(second.stress_actions, 16u);
}

}  // namespace
}  // namespace pufatt

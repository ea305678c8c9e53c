// Configuration-variant sweeps: the RM(1,m) code family across m and the
// 16-bit (FPGA-width) PUF pipeline with RM(1,4) helper data — the
// configuration the paper's prototype implies.
#include <gtest/gtest.h>

#include <set>

#include "alupuf/pipeline.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/reed_muller.hpp"
#include "support/stats.hpp"

namespace pufatt {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

// ------------------------------------------------------- RM(1,m) sweeps

class RmFamily : public ::testing::TestWithParam<unsigned> {};

TEST_P(RmFamily, ParametersAndRoundTrip) {
  const unsigned m = GetParam();
  const ecc::ReedMuller1 rm(m);
  EXPECT_EQ(rm.n(), std::size_t{1} << m);
  EXPECT_EQ(rm.k(), m + 1);
  EXPECT_EQ(rm.min_distance(), rm.n() / 2);
  Xoshiro256pp rng(m);
  for (int t = 0; t < 50; ++t) {
    const auto msg = BitVector::random(rm.k(), rng);
    const auto cw = rm.encode(msg);
    EXPECT_EQ(rm.syndrome(cw).popcount(), 0u);
    EXPECT_EQ(rm.decode(cw), msg);
  }
}

TEST_P(RmFamily, CorrectsGuaranteedRadius) {
  const unsigned m = GetParam();
  const ecc::ReedMuller1 rm(m);
  Xoshiro256pp rng(100 + m);
  const std::size_t t_max = rm.guaranteed_correction();
  for (int trial = 0; trial < 100; ++trial) {
    const auto msg = BitVector::random(rm.k(), rng);
    auto noisy = rm.encode(msg);
    const std::size_t nerr = t_max == 0 ? 0 : 1 + rng.uniform_u64(t_max);
    std::set<std::size_t> positions;
    while (positions.size() < nerr) positions.insert(rng.uniform_u64(rm.n()));
    for (const auto p : positions) noisy.flip(p);
    EXPECT_EQ(rm.decode(noisy), msg) << "m=" << m << " errors=" << nerr;
  }
}

TEST_P(RmFamily, HelperDataReconstruction) {
  const unsigned m = GetParam();
  const ecc::ReedMuller1 rm(m);
  const ecc::SyndromeHelper helper(rm);
  EXPECT_EQ(helper.helper_bits(), rm.n() - rm.k());
  Xoshiro256pp rng(200 + m);
  for (int trial = 0; trial < 60; ++trial) {
    const auto y = BitVector::random(rm.n(), rng);
    const auto h = helper.generate(y);
    auto ref = y;
    const std::size_t nerr = rng.uniform_u64(rm.guaranteed_correction() + 1);
    std::set<std::size_t> positions;
    while (positions.size() < nerr) positions.insert(rng.uniform_u64(rm.n()));
    for (const auto p : positions) ref.flip(p);
    const auto rec = helper.reproduce(ref, h);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(*rec, y);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, RmFamily, ::testing::Values(3u, 4u, 5u, 6u, 7u));

// ------------------------------------------- 16-bit (FPGA-width) pipeline

class Width16Pipeline : public ::testing::Test {
 protected:
  Width16Pipeline()
      : code_(4),  // RM(1,4) = [16,5,8]: the 16-bit prototype's code
        device_(make_config(), 4321, code_),
        emulator_(16, device_.export_model(), code_) {}

  static alupuf::AluPufConfig make_config() {
    alupuf::AluPufConfig config;
    config.width = 16;
    return config;
  }

  ecc::ReedMuller1 code_;
  alupuf::PufDevice device_;
  alupuf::PufEmulator emulator_;
  Xoshiro256pp rng_{17};
};

TEST_F(Width16Pipeline, ShapesMatchPrototype) {
  EXPECT_EQ(device_.output_bits(), 16u);
  EXPECT_EQ(device_.helper_bits(), 11u);  // 16 - 5
  const auto out = device_.query(1, variation::Environment::nominal(), rng_);
  EXPECT_EQ(out.z.size(), 16u);
  ASSERT_EQ(out.helpers.size(), 8u);
  for (const auto& h : out.helpers) EXPECT_EQ(h.size(), 11u);
}

TEST_F(Width16Pipeline, VerifierReproducesOutput) {
  // RM(1,4) corrects only 3 of 16 bits, so the 16-bit prototype tolerates
  // less noise than the 32-bit design — still enough at our calibration.
  int match = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t x = rng_.next();
    const auto out = device_.query(x, variation::Environment::nominal(), rng_);
    const auto z = emulator_.emulate(x, out.helpers);
    if (z && *z == out.z) ++match;
  }
  EXPECT_GE(match, trials - 2);
}

TEST_F(Width16Pipeline, ImpostorRejected) {
  const alupuf::PufDevice impostor(make_config(), 8765, code_);
  int match = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t x = rng_.next();
    const auto out = impostor.query(x, variation::Environment::nominal(), rng_);
    const auto z = emulator_.emulate(x, out.helpers);
    if (z && *z == out.z) ++match;
  }
  EXPECT_LT(match, trials / 4);
}

TEST_F(Width16Pipeline, InterChipStatisticsReasonable) {
  const alupuf::PufDevice other(make_config(), 9999, code_);
  support::OnlineStats hd;
  for (int t = 0; t < 80; ++t) {
    const std::uint64_t x = rng_.next();
    hd.add(static_cast<double>(
        device_.query(x, variation::Environment::nominal(), rng_)
            .z.hamming_distance(
                other.query(x, variation::Environment::nominal(), rng_).z)));
  }
  EXPECT_GT(hd.mean(), 5.0);   // obfuscated output near 50% of 16
  EXPECT_LT(hd.mean(), 11.0);
}

}  // namespace
}  // namespace pufatt

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <latch>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "alupuf/arbiter_puf.hpp"
#include "alupuf/obfuscation.hpp"
#include "alupuf/pipeline.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/reed_muller.hpp"
#include "reference_pipeline.hpp"
#include "support/stats.hpp"

namespace pufatt::alupuf {
namespace {

using support::BitVector;
using support::Xoshiro256pp;
using variation::Environment;

AluPufConfig small_config(std::size_t width = 16) {
  AluPufConfig config;
  config.width = width;
  return config;
}

Challenge random_challenge(std::size_t width, Xoshiro256pp& rng) {
  return BitVector::random(2 * width, rng);
}

// ------------------------------------------------------------------ AluPuf

TEST(AluPuf, ResponseShape) {
  const AluPuf puf(small_config(), 1);
  EXPECT_EQ(puf.response_bits(), 16u);
  EXPECT_EQ(puf.challenge_bits(), 32u);
  Xoshiro256pp rng(2);
  const auto r = puf.eval(random_challenge(16, rng), Environment::nominal(), rng);
  EXPECT_EQ(r.size(), 16u);
}

TEST(AluPuf, RejectsWrongChallengeSize) {
  const AluPuf puf(small_config(), 1);
  Xoshiro256pp rng(3);
  EXPECT_THROW(puf.eval(BitVector(31), Environment::nominal(), rng),
               std::invalid_argument);
}

TEST(AluPuf, MostlyStableAcrossRepeatedEvaluations) {
  // Intra-chip HD must be small but non-zero (noise + metastability).
  const AluPuf puf(small_config(32), 7);
  Xoshiro256pp rng(4);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 200; ++trial) {
    const auto c = random_challenge(32, rng);
    const auto r1 = puf.eval(c, env, rng);
    const auto r2 = puf.eval(c, env, rng);
    hd.add(static_cast<double>(r1.hamming_distance(r2)));
  }
  EXPECT_GT(hd.mean(), 0.0);
  EXPECT_LT(hd.mean(), 8.0);  // well under 25% of 32 bits
}

TEST(AluPuf, DifferentChipsDisagree) {
  const auto config = small_config(32);
  const AluPuf a(config, 100), b(config, 200);
  Xoshiro256pp rng(5);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 200; ++trial) {
    const auto c = random_challenge(32, rng);
    hd.add(static_cast<double>(
        a.eval(c, env, rng).hamming_distance(b.eval(c, env, rng))));
  }
  // Inter-chip HD should be far above intra-chip (>= ~25% of 32 bits).
  EXPECT_GT(hd.mean(), 8.0);
}

TEST(AluPuf, ChallengeDependentResponses) {
  const AluPuf puf(small_config(32), 9);
  Xoshiro256pp rng(6);
  const auto env = Environment::nominal();
  int diff = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto c1 = random_challenge(32, rng);
    const auto c2 = random_challenge(32, rng);
    if (puf.eval(c1, env, rng) != puf.eval(c2, env, rng)) ++diff;
  }
  EXPECT_GT(diff, 40);
}

TEST(AluPuf, RaceDeltasNonZeroAndChipSpecific) {
  const auto config = small_config(16);
  const AluPuf a(config, 1), b(config, 2);
  Xoshiro256pp rng(7);
  const auto c = random_challenge(16, rng);
  const auto da = a.race_deltas(c, Environment::nominal());
  const auto db = b.race_deltas(c, Environment::nominal());
  ASSERT_EQ(da.size(), 16u);
  int differing_signs = 0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_NE(da[i], 0.0);
    if ((da[i] > 0) != (db[i] > 0)) ++differing_signs;
  }
  EXPECT_GT(differing_signs, 0);
}

TEST(AluPuf, MaxSettleTimeScalesWithWidth) {
  const AluPuf narrow(small_config(8), 3);
  const AluPuf wide(small_config(32), 3);
  const auto env = Environment::nominal();
  EXPECT_GT(wide.max_settle_ps(env), narrow.max_settle_ps(env) * 2.0);
}

TEST(AluPuf, OverclockingBreaksResponses) {
  // Against the enrollment reference: a generous clock leaves only the
  // usual noise, while a clock far below the carry-chain latency latches
  // garbage on most bits — the paper's setup-violation defence.
  const AluPuf puf(small_config(32), 11);
  const AluPufEmulator emu(32, puf.export_model());
  Xoshiro256pp rng(8);
  const auto env = Environment::nominal();
  const double t_alu = puf.max_settle_ps(env);

  const ClockConstraint safe{t_alu * 1.5 + 100.0, 20.0};
  const ClockConstraint violated{t_alu * 0.05, 20.0};

  int safe_errors = 0;
  int violated_errors = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto c = random_challenge(32, rng);
    const auto reference = emu.eval(c);
    safe_errors += static_cast<int>(
        puf.eval(c, env, rng, &safe).hamming_distance(reference));
    violated_errors += static_cast<int>(
        puf.eval(c, env, rng, &violated).hamming_distance(reference));
  }
  EXPECT_LT(safe_errors, violated_errors / 3);
  EXPECT_GT(violated_errors, 300);  // ~half the bits wrong on average
}

TEST(AluPuf, EnvironmentCornersFlipSomeBitsDeterministically) {
  // Voltage/temperature corners reorder a few races (wire-RC vs transistor
  // scaling, per-gate Vth tempco) — deterministic, noise-free flips on top
  // of the metastability noise the paper's Figure 4 reports.
  const AluPuf puf(small_config(32), 13);
  const auto flips = [&](const Challenge& c, const Environment& env) {
    const auto ref = puf.race_deltas(c, Environment::nominal());
    const auto at = puf.race_deltas(c, env);
    double n = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) n += (ref[i] > 0) != (at[i] > 0);
    return n;
  };
  Xoshiro256pp rng(9);
  support::OnlineStats volt_flips, temp_flips;
  for (int trial = 0; trial < 150; ++trial) {
    const auto c = random_challenge(32, rng);
    volt_flips.add(flips(c, Environment{0.9, 25.0}));
    temp_flips.add(flips(c, Environment{1.0, 120.0}));
  }
  EXPECT_GT(volt_flips.mean(), 0.3);
  EXPECT_GT(temp_flips.mean(), 0.3);
  EXPECT_LT(volt_flips.mean(), 6.0);  // corners disturb, not destroy
  EXPECT_LT(temp_flips.mean(), 6.0);
}

TEST(AluPuf, CornerDelaysAreTheDelayTableEmulationBitForBit) {
  // Off the nominal point the device computes its corner delays per call;
  // they must be bit for bit what the verifier's model H gives there, or
  // an emulation at a measured corner would race differently from the die.
  // Seen through race_deltas, at the nine V/T corners of Figure 4.
  const AluPuf puf(small_config(32), 21);
  const auto model = puf.export_model();
  const timingsim::TimingSimulator sim(puf.circuit().net);
  Xoshiro256pp rng(4);
  std::vector<timingsim::SignalState> states;
  for (const double vdd : {0.9, 1.0, 1.1}) {
    for (const double temp : {-20.0, 25.0, 120.0}) {
      const Environment env{vdd, temp};
      const auto delays = variation::delays_from_table(model, env);
      for (int trial = 0; trial < 8; ++trial) {
        const auto c = random_challenge(32, rng);
        sim.run(c, delays, states);
        const auto deltas = puf.race_deltas(c, env);
        for (std::size_t i = 0; i < deltas.size(); ++i) {
          const double expected = states[puf.circuit().race1[i]].time_ps -
                                  states[puf.circuit().race0[i]].time_ps;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(deltas[i]),
                    std::bit_cast<std::uint64_t>(expected))
              << "bit " << i << " at V x" << vdd << ", " << temp << " C";
        }
      }
    }
  }
}

TEST(AluPuf, ConcurrentEvaluationAcrossEnvironmentsMatchesSerial) {
  // One const device shared by four threads, two at the nominal point and
  // two at a hot low-voltage corner, each with its own scratch and
  // generator: every evaluation form reads only the device, so each
  // thread gets exactly what a serial run of its calls gets.
  const AluPuf puf(small_config(32), 42);
  const Environment envs[] = {Environment::nominal(), Environment{0.9, 120.0}};
  struct Results {
    std::vector<std::uint64_t> words;
    std::vector<RawResponse> responses;
    std::vector<std::vector<double>> deltas;
    std::vector<double> settle_ps;
    bool operator==(const Results&) const = default;
  };
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 150;
  const auto run = [&](std::size_t thread) {
    const Environment env = envs[thread % 2];
    Xoshiro256pp rng(0xC0FFEE + thread);
    AluPufBatchScratch scratch;
    Results out;
    for (int round = 0; round < kRounds; ++round) {
      std::uint64_t words[8], responses[8];
      for (auto& word : words) word = rng.next();
      puf.eval_words(words, 8, env, rng, nullptr, scratch, responses);
      out.words.insert(out.words.end(), responses, responses + 8);
      std::vector<Challenge> challenges;
      for (int c = 0; c < 8; ++c) {
        challenges.push_back(random_challenge(32, rng));
      }
      const auto batch =
          puf.eval_batch(challenges.data(), 8, env, rng, nullptr, &scratch);
      out.responses.insert(out.responses.end(), batch.begin(), batch.end());
      out.responses.push_back(puf.eval(challenges[0], env, rng));
      out.deltas.push_back(puf.race_deltas(challenges[1], env));
      out.settle_ps.push_back(puf.max_settle_ps(env));
    }
    return out;
  };
  std::vector<Results> serial;
  for (std::size_t t = 0; t < kThreads; ++t) serial.push_back(run(t));
  std::vector<Results> concurrent(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      concurrent[t] = run(t);
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(concurrent[t] == serial[t]) << "thread " << t;
  }
}

// ---------------------------------------------------------------- Emulator

TEST(AluPufEmulator, MatchesChipNominalBehaviour) {
  // The emulator from the delay table must agree with the physical chip up
  // to noise: HD(emulated, measured) ~ intra-chip HD, far below 50%.
  const auto config = small_config(32);
  const AluPuf puf(config, 21);
  const AluPufEmulator emu(32, puf.export_model());
  Xoshiro256pp rng(10);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 150; ++trial) {
    const auto c = random_challenge(32, rng);
    hd.add(static_cast<double>(
        emu.eval(c).hamming_distance(puf.eval(c, env, rng))));
  }
  EXPECT_LT(hd.mean(), 6.0);
}

TEST(AluPufEmulator, DeterministicForSameChallenge) {
  const AluPuf puf(small_config(16), 22);
  const AluPufEmulator emu(16, puf.export_model());
  Xoshiro256pp rng(11);
  const auto c = random_challenge(16, rng);
  EXPECT_EQ(emu.eval(c), emu.eval(c));
}

TEST(AluPufEmulator, WrongChipModelDisagrees) {
  const auto config = small_config(32);
  const AluPuf victim(config, 30);
  const AluPuf other(config, 31);
  const AluPufEmulator wrong_model(32, other.export_model());
  Xoshiro256pp rng(12);
  const auto env = Environment::nominal();
  support::OnlineStats hd;
  for (int trial = 0; trial < 100; ++trial) {
    const auto c = random_challenge(32, rng);
    hd.add(static_cast<double>(
        wrong_model.eval(c).hamming_distance(victim.eval(c, env, rng))));
  }
  EXPECT_GT(hd.mean(), 8.0);  // emulating the wrong chip does not help
}

TEST(AluPufEmulator, RejectsMismatchedModel) {
  const AluPuf puf(small_config(16), 23);
  EXPECT_THROW(AluPufEmulator(32, puf.export_model()), std::invalid_argument);
}

TEST(AluPufEmulator, EmulatorsOfOneShapeShareTheCircuit) {
  const AluPuf puf(small_config(16), 41);
  const AluPufEmulator a(16, puf.export_model());
  const AluPufEmulator b(16, AluPuf(small_config(16), 42).export_model());
  EXPECT_EQ(&a.circuit(), &b.circuit());
  EXPECT_EQ(&a.circuit(), &puf.circuit());
  const AluPufEmulator wide(32, AluPuf(small_config(32), 43).export_model());
  EXPECT_NE(&a.circuit(), &wide.circuit());
}

TEST(AluPufEmulator, CopiesOutliveTheirSource) {
  // Copies share the immutable circuit and own everything else, so a copy
  // keeps evaluating identically after its source is destroyed.
  const auto env = Environment::nominal();
  Xoshiro256pp rng(44);
  std::vector<Challenge> challenges;
  for (int i = 0; i < 20; ++i) challenges.push_back(random_challenge(16, rng));
  auto puf = std::make_unique<AluPuf>(small_config(16), 44);
  const AluPuf puf_copy = *puf;
  Xoshiro256pp source_rng(7), copy_rng(7);
  const auto expected =
      puf->eval_batch(challenges.data(), challenges.size(), env, source_rng);
  puf.reset();
  EXPECT_EQ(puf_copy.eval_batch(challenges.data(), challenges.size(), env,
                                copy_rng),
            expected);

  const ecc::ReedMuller1 code(5);
  const PufDevice device(small_config(32), 45, code);
  auto emulator = std::make_unique<PufEmulator>(32, device.export_model(), code);
  const PufEmulator emulator_copy = *emulator;
  std::vector<PufOutput> outs;
  std::vector<std::optional<BitVector>> zs;
  for (std::uint64_t x = 0; x < 6; ++x) {
    outs.push_back(device.query(x, env, rng));
    zs.push_back(emulator->emulate(x, outs[x].helpers));
  }
  emulator.reset();
  for (std::uint64_t x = 0; x < 6; ++x) {
    EXPECT_EQ(emulator_copy.emulate(x, outs[x].helpers), zs[x]);
  }
}

// ------------------------------------------------------------- Obfuscation

TEST(Obfuscation, RejectsOddWidth) {
  EXPECT_THROW(ObfuscationNetwork(7), std::invalid_argument);
  EXPECT_THROW(ObfuscationNetwork(0), std::invalid_argument);
}

TEST(Obfuscation, FoldXorsHalves) {
  const ObfuscationNetwork net(8);
  const auto r = BitVector::from_string("10110100");  // high nibble 1011
  const auto f = net.fold(r);
  ASSERT_EQ(f.size(), 4u);
  // f[i] = r[i] ^ r[i+4]
  EXPECT_EQ(f.get(0), r.get(0) != r.get(4));
  EXPECT_EQ(f.get(3), r.get(3) != r.get(7));
}

TEST(Obfuscation, MatchesPaperFormula) {
  const std::size_t two_n = 16;
  const ObfuscationNetwork net(two_n);
  Xoshiro256pp rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    std::array<BitVector, 8> y;
    for (auto& r : y) r = BitVector::random(two_n, rng);
    const auto z = net.obfuscate(y);
    ASSERT_EQ(z.size(), two_n);
    const std::size_t n = two_n / 2;
    for (std::size_t i = 0; i < two_n; ++i) {
      bool expect = false;
      for (std::size_t j = 0; j < 4; ++j) {
        const auto& resp = i < n ? y[2 * j] : y[2 * j + 1];
        const std::size_t idx = i < n ? i : i - n;
        expect ^= resp.get(idx) != resp.get(idx + n);
      }
      EXPECT_EQ(z.get(i), expect);
    }
  }
}

TEST(Obfuscation, LinearInEachInput) {
  // XOR network => flipping one input bit flips exactly one output bit.
  const ObfuscationNetwork net(16);
  Xoshiro256pp rng(14);
  std::array<BitVector, 8> y;
  for (auto& r : y) r = BitVector::random(16, rng);
  const auto z0 = net.obfuscate(y);
  y[3].flip(5);
  const auto z1 = net.obfuscate(y);
  EXPECT_EQ(z0.hamming_distance(z1), 1u);
}

TEST(Obfuscation, ImprovesUniformity) {
  // Biased raw responses (70% ones) become nearly unbiased after the
  // two-phase XOR — the mechanism pushing inter-chip HD toward 50%.
  const ObfuscationNetwork net(32);
  Xoshiro256pp rng(15);
  std::size_t ones = 0;
  const int trials = 2000;
  for (int trial = 0; trial < trials; ++trial) {
    std::array<BitVector, 8> y;
    for (auto& r : y) {
      r = BitVector(32);
      for (std::size_t i = 0; i < 32; ++i) r.set(i, rng.bernoulli(0.7));
    }
    ones += net.obfuscate(y).popcount();
  }
  const double density = static_cast<double>(ones) / (32.0 * trials);
  EXPECT_NEAR(density, 0.5, 0.02);
}

// ---------------------------------------------------------------- Pipeline

TEST(ChallengeExpander, DeterministicAndDistinct) {
  const auto a = ChallengeExpander::expand(42, 32);
  const auto b = ChallengeExpander::expand(42, 32);
  const auto c = ChallengeExpander::expand(43, 32);
  ASSERT_EQ(a.size(), 8u);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[7], b[7]);
  EXPECT_NE(a[0], c[0]);
  EXPECT_NE(a[0], a[1]);
  EXPECT_EQ(a[0].size(), 64u);
}

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture()
      : code_(5),
        device_(small_config(32), 77, code_),
        emulator_(32, device_.export_model(), code_) {}

  ecc::ReedMuller1 code_;
  PufDevice device_;
  PufEmulator emulator_;
};

TEST_F(PipelineFixture, DeviceOutputShape) {
  Xoshiro256pp rng(16);
  const auto out = device_.query(123, Environment::nominal(), rng);
  EXPECT_EQ(out.z.size(), 32u);
  ASSERT_EQ(out.helpers.size(), 8u);
  for (const auto& h : out.helpers) EXPECT_EQ(h.size(), 26u);
}

TEST_F(PipelineFixture, VerifierReproducesDeviceOutput) {
  // The central correctness property of the whole post-processing chain:
  // for an honest device, PUF.Emulate() recomputes z exactly.
  Xoshiro256pp rng(17);
  int match = 0;
  const int trials = 50;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t x = rng.next();
    const auto out = device_.query(x, Environment::nominal(), rng);
    const auto z = emulator_.emulate(x, out.helpers);
    ASSERT_TRUE(z.has_value());
    if (*z == out.z) ++match;
  }
  // Error correction handles the noise: expect near-perfect agreement.
  EXPECT_GE(match, trials - 1);
}

TEST_F(PipelineFixture, WrongChipModelFailsVerificationPerCall) {
  // Structural note (documented in EXPERIMENTS.md): when reconstruction
  // fails, the error y_rec XOR y' is always a *codeword*, and the paper's
  // fold (bit i XOR bit i+n) maps every RM(1,5) codeword to a constant
  // block.  A forged transcript therefore still matches z with probability
  // ~1/4 per PUF call; attestation security comes from the many PUF calls
  // per run (match probability (1/4)^k).  Here we check the per-call rate
  // is far below 1 (and the protocol-level tests check full rejection).
  const PufDevice impostor(small_config(32), 999, code_);
  Xoshiro256pp rng(18);
  int match = 0;
  const int trials = 60;
  for (int trial = 0; trial < trials; ++trial) {
    const std::uint64_t x = rng.next();
    const auto out = impostor.query(x, Environment::nominal(), rng);
    const auto z = emulator_.emulate(x, out.helpers);
    if (z && *z == out.z) ++match;
  }
  EXPECT_LT(match, trials / 2);
}

TEST(Obfuscation, WordKernelMatchesBitByBitDefinition) {
  using Pairing = ObfuscationNetwork::Pairing;
  Xoshiro256pp rng(20);
  for (const std::size_t two_n : {16u, 32u}) {
    for (const Pairing pairing : {Pairing::kPaper, Pairing::kHardened}) {
      const ObfuscationNetwork net(two_n, pairing);
      for (int trial = 0; trial < 200; ++trial) {
        std::array<BitVector, 8> y;
        std::array<std::uint64_t, 8> words;
        for (std::size_t r = 0; r < 8; ++r) {
          y[r] = BitVector::random(two_n, rng);
          // Bits at or above 2n are not part of the response.
          words[r] = y[r].to_u64() | rng.next() << two_n;
        }
        const auto expected = testref::reference_obfuscate(y, pairing);
        ASSERT_EQ(net.obfuscate_words(words), expected.to_u64())
            << "2n=" << two_n << " trial " << trial;
        ASSERT_EQ(net.obfuscate(y), expected);
        const auto folded = testref::reference_fold(y[0], pairing);
        ASSERT_EQ(net.fold_word(words[0]), folded.to_u64());
        ASSERT_EQ(net.fold(y[0]), folded);
      }
    }
  }
}

TEST(Obfuscation, FoldOfReedMullerCodewordIsConstant) {
  // The structural interaction behind the ~1/4 per-call forgery rate: for
  // every RM(1,5) codeword c, c[i] XOR c[i+16] = u_4 for all i — the fold
  // collapses codewords to all-zeros or all-ones.
  const ecc::ReedMuller1 rm(5);
  const ObfuscationNetwork net(32);
  for (std::uint64_t m = 0; m < 64; ++m) {
    const auto folded = net.fold(rm.encode(BitVector(6, m)));
    const auto weight = folded.popcount();
    EXPECT_TRUE(weight == 0 || weight == folded.size())
        << "message " << m << " gave weight " << weight;
  }
}

TEST_F(PipelineFixture, EmulatorRejectsWrongHelperCount) {
  EXPECT_FALSE(emulator_.emulate(1, {}).has_value());
}

TEST_F(PipelineFixture, HelperDataDependsOnResponseNoise) {
  Xoshiro256pp rng(19);
  const auto out1 = device_.query(5, Environment::nominal(), rng);
  const auto out2 = device_.query(5, Environment::nominal(), rng);
  // Same challenge, two physical queries: helper data usually differs in a
  // few syndrome bits (noisy responses), yet both verify to the same z.
  const auto z1 = emulator_.emulate(5, out1.helpers);
  const auto z2 = emulator_.emulate(5, out2.helpers);
  ASSERT_TRUE(z1.has_value());
  ASSERT_TRUE(z2.has_value());
  EXPECT_EQ(*z1, out1.z);
  EXPECT_EQ(*z2, out2.z);
}

TEST_F(PipelineFixture, WordReproduceRoundTripsDeviceHelpers) {
  // Real device readings: the syndrome the device computes from its noisy
  // response, reconstructed from the emulator's soft reference.
  const ecc::SyndromeHelper helper(code_);
  const auto& emu = emulator_.raw_emulator();
  Xoshiro256pp rng(21);
  int exact = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const auto challenge = random_challenge(32, rng);
    const auto response =
        device_.raw_puf().eval(challenge, Environment::nominal(), rng);
    const auto h = helper.generate(response);
    const auto llr = emu.eval_soft(challenge);
    const auto word = helper.reproduce_soft_word(llr.data(), h.to_u64());
    ASSERT_TRUE(word.has_value());
    ASSERT_EQ(BitVector(32, *word),
              testref::reference_reproduce_soft(code_, llr, h));
    if (*word == response.to_u64()) ++exact;
  }
  EXPECT_GE(exact, trials * 95 / 100);
}

TEST_F(PipelineFixture, EmulateWordsMatchesReferencePipeline) {
  // One PUF() call through the word pipeline against the same call built
  // from scalar eval_soft, BitVector reconstruction and the bit-by-bit
  // obfuscation, for honest and impostor (budget-tripping) transcripts.
  const PufDevice impostor(small_config(32), 999, code_);
  const auto& emu = emulator_.raw_emulator();
  Xoshiro256pp rng(22);
  timingsim::BitSliceState state;
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const PufDevice& prover = trial % 3 == 2 ? impostor : device_;
    std::array<Challenge, 8> challenges;
    PufEmulator::Words challenge_words, helper_words;
    for (std::size_t r = 0; r < 8; ++r) {
      challenges[r] = random_challenge(32, rng);
      challenge_words[r] = challenges[r].to_u64();
    }
    const auto out = prover.query_raw(challenges, Environment::nominal(), rng);
    for (std::size_t r = 0; r < 8; ++r) helper_words[r] = out.helpers[r].to_u64();

    std::array<BitVector, 8> responses;
    PufEmulator::CallStats expected;
    for (std::size_t r = 0; r < 8; ++r) {
      const auto llr = emu.eval_soft(challenges[r]);
      responses[r] =
          testref::reference_reproduce_soft(code_, llr, out.helpers[r]);
      for (std::size_t i = 0; i < llr.size(); ++i) {
        if (responses[r].get(i) != (llr[i] < 0.0)) {
          ++expected.distance;
          expected.weighted_ps += std::abs(llr[i]);
        }
      }
    }
    const bool within =
        expected.distance <= emulator_.max_call_distance() &&
        expected.weighted_ps <= emulator_.max_weighted_distance();

    const auto call =
        emulator_.emulate_words(challenge_words, helper_words, state);
    ASSERT_EQ(call.stats.distance, expected.distance) << "trial " << trial;
    ASSERT_EQ(call.stats.weighted_ps, expected.weighted_ps) << "trial " << trial;
    ASSERT_EQ(call.z.has_value(), within) << "trial " << trial;
    if (within) {
      ASSERT_EQ(*call.z, testref::reference_obfuscate(
                             responses, ObfuscationNetwork::Pairing::kHardened)
                             .to_u64());
      ++accepted;
    } else {
      ++rejected;
    }
    const auto raw = emulator_.emulate_raw(challenges, out.helpers);
    ASSERT_EQ(raw.has_value(), within);
    if (raw) {
      EXPECT_EQ(raw->to_u64(), *call.z);
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(PipelineFixture, CallHammingBudgetBoundsLowMarginFlips) {
  // A transcript that differs from the model only on low-margin bits
  // stays inside the weighted budget however many bits differ; the
  // per-call Hamming budget is what bounds their number.  Each response
  // flips its lowest-margin bits, 6 of them (48 in the call, at the
  // bound: accepted), then one more in the first response (49: rejected),
  // on challenges whose 7 lowest margins sum to under 7 ps.
  const auto& emu = emulator_.raw_emulator();
  const ecc::SyndromeHelper helper(code_);
  const std::size_t flips = emulator_.max_call_distance() / 8;
  Xoshiro256pp rng(24);
  PufEmulator::Words challenge_words;
  std::array<std::vector<double>, 8> llrs;
  std::array<std::vector<std::size_t>, 8> by_margin;
  std::size_t found = 0;
  for (int tries = 0; found < 8 && tries < 20000; ++tries) {
    const auto challenge = random_challenge(32, rng);
    auto llr = emu.eval_soft(challenge);
    std::vector<std::size_t> order(llr.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
      return std::abs(llr[i]) < std::abs(llr[j]);
    });
    double low = 0.0;
    for (std::size_t k = 0; k <= flips; ++k) low += std::abs(llr[order[k]]);
    if (low >= 7.0) continue;
    challenge_words[found] = challenge.to_u64();
    llrs[found] = std::move(llr);
    by_margin[found] = std::move(order);
    ++found;
  }
  ASSERT_EQ(found, 8u);
  const auto call_with = [&](std::size_t extra) {
    PufEmulator::Words helper_words;
    for (std::size_t r = 0; r < 8; ++r) {
      BitVector y(32);
      for (std::size_t i = 0; i < 32; ++i) y.set(i, llrs[r][i] < 0.0);
      const std::size_t n = flips + (r == 0 ? extra : 0);
      for (std::size_t k = 0; k < n; ++k) {
        y.set(by_margin[r][k], !y.get(by_margin[r][k]));
      }
      helper_words[r] = helper.generate(y).to_u64();
    }
    timingsim::BitSliceState state;
    return emulator_.emulate_words(challenge_words, helper_words, state);
  };
  const auto at_bound = call_with(0);
  ASSERT_EQ(at_bound.stats.distance, emulator_.max_call_distance());
  ASSERT_LE(at_bound.stats.weighted_ps, emulator_.max_weighted_distance());
  EXPECT_TRUE(at_bound.z.has_value());
  const auto over = call_with(1);
  ASSERT_EQ(over.stats.distance, emulator_.max_call_distance() + 1);
  ASSERT_LE(over.stats.weighted_ps, emulator_.max_weighted_distance());
  EXPECT_FALSE(over.z.has_value());
}

TEST(Pipeline, RejectsCodeWidthMismatch) {
  const ecc::ReedMuller1 rm4(4);  // n = 16, but PUF width 32
  EXPECT_THROW(PufDevice(small_config(32), 1, rm4), std::invalid_argument);
}

// -------------------------------------------------------------- ArbiterPuf

TEST(ArbiterPuf, FeatureMapMatchesDefinition) {
  const auto phi = ArbiterPuf::features(BitVector::from_string("0110"));
  // challenge bits (LSB first): c0=0, c1=1, c2=1, c3=0
  // phi[i] = prod_{j>=i} (1-2c_j); phi[4] = 1
  ASSERT_EQ(phi.size(), 5u);
  EXPECT_DOUBLE_EQ(phi[4], 1.0);
  EXPECT_DOUBLE_EQ(phi[3], 1.0);    // c3=0
  EXPECT_DOUBLE_EQ(phi[2], -1.0);   // c2=1
  EXPECT_DOUBLE_EQ(phi[1], 1.0);    // c1=1, c2=1
  EXPECT_DOUBLE_EQ(phi[0], 1.0);    // c0=0
}

TEST(ArbiterPuf, DeltaIsLinearInFeatures) {
  const ArbiterPuf puf({.stages = 16}, 1);
  Xoshiro256pp rng(20);
  // delta(c) computed two ways must agree; linearity over feature XOR is
  // what the LR attack exploits.
  for (int trial = 0; trial < 50; ++trial) {
    const auto c = BitVector::random(16, rng);
    const double d = puf.delta(c);
    EXPECT_EQ(puf.eval_ideal(c), d > 0.0);
  }
}

TEST(ArbiterPuf, InterChipAboutFiftyPercent) {
  // A single chip pair's disagreement rate is the angle between two random
  // weight vectors (noticeably spread), so average over several pairs.
  const ArbiterPufParams params{.stages = 64};
  Xoshiro256pp rng(21);
  double total = 0.0;
  const int pairs = 8;
  const int trials = 2000;
  for (int p = 0; p < pairs; ++p) {
    const ArbiterPuf a(params, 100 + 2 * p), b(params, 101 + 2 * p);
    int diff = 0;
    for (int i = 0; i < trials; ++i) {
      const auto c = BitVector::random(64, rng);
      if (a.eval_ideal(c) != b.eval_ideal(c)) ++diff;
    }
    total += static_cast<double>(diff) / trials;
  }
  EXPECT_NEAR(total / pairs, 0.5, 0.05);
}

TEST(ArbiterPuf, IntraChipSmall) {
  const ArbiterPuf puf({.stages = 64, .noise_sigma = 0.3}, 3);
  Xoshiro256pp rng(22);
  int diff = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto c = BitVector::random(64, rng);
    if (puf.eval(c, rng) != puf.eval(c, rng)) ++diff;
  }
  const double intra = static_cast<double>(diff) / trials;
  EXPECT_GT(intra, 0.0);
  EXPECT_LT(intra, 0.15);
}

TEST(ArbiterPuf, RejectsBadInput) {
  EXPECT_THROW(ArbiterPuf({.stages = 0}, 1), std::invalid_argument);
  const ArbiterPuf puf({.stages = 8}, 1);
  EXPECT_THROW(puf.delta(BitVector(7)), std::invalid_argument);
}

// -------------------------------------------------- FeedForwardArbiterPuf

TEST(FeedForwardArbiterPuf, RejectsBadLoops) {
  FeedForwardParams params;
  params.stages = 32;
  params.loops = {{10, 5}};
  EXPECT_THROW(FeedForwardArbiterPuf(params, 1), std::invalid_argument);
  params.loops = {{10, 40}};
  EXPECT_THROW(FeedForwardArbiterPuf(params, 1), std::invalid_argument);
}

TEST(FeedForwardArbiterPuf, DeterministicIdealEval) {
  const FeedForwardArbiterPuf puf({}, 5);
  Xoshiro256pp rng(23);
  const auto c = BitVector::random(64, rng);
  EXPECT_EQ(puf.eval_ideal(c), puf.eval_ideal(c));
}

TEST(FeedForwardArbiterPuf, InterChipNearHalf) {
  const FeedForwardArbiterPuf a({}, 10), b({}, 11);
  Xoshiro256pp rng(24);
  int diff = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    const auto c = BitVector::random(64, rng);
    if (a.eval_ideal(c) != b.eval_ideal(c)) ++diff;
  }
  EXPECT_NEAR(static_cast<double>(diff) / trials, 0.5, 0.07);
}

TEST(FeedForwardArbiterPuf, NoisierThanPlainArbiter) {
  // The paper's reference point: FF-arbiter intra-chip HD (9.8%) exceeds
  // the plain arbiter's, because intermediate arbiter flips cascade.
  const double noise = 0.3;
  const ArbiterPuf plain({.stages = 64, .noise_sigma = noise}, 30);
  FeedForwardParams ff_params;
  ff_params.noise_sigma = noise;
  const FeedForwardArbiterPuf ff(ff_params, 30);
  Xoshiro256pp rng(25);
  int plain_diff = 0, ff_diff = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto c = BitVector::random(64, rng);
    if (plain.eval(c, rng) != plain.eval(c, rng)) ++plain_diff;
    if (ff.eval(c, rng) != ff.eval(c, rng)) ++ff_diff;
  }
  EXPECT_GE(ff_diff, plain_diff);
}

// ------------------------------------------------------------ batch paths

TEST(AluPufBatch, DeviceBatchConsumesOneNextAndIsReproducible) {
  // The eval_batch RNG contract (see alu_puf.hpp): the batch spends
  // exactly one rng.next() of the caller's generator, and the responses
  // are a pure function of (that value, challenges).
  const AluPuf puf(small_config(), 11);
  const auto env = Environment::nominal();
  std::vector<Challenge> challenges;
  {
    Xoshiro256pp crng(77);
    for (int i = 0; i < 64; ++i) {
      challenges.push_back(random_challenge(16, crng));
    }
  }
  Xoshiro256pp rng(1234);
  Xoshiro256pp probe = rng;
  const auto batch =
      puf.eval_batch(challenges.data(), challenges.size(), env, rng);
  ASSERT_EQ(batch.size(), challenges.size());
  // Exactly one next() consumed: after one probe step the streams align.
  probe.next();
  EXPECT_EQ(rng.next(), probe.next());
  // Same caller state -> bit-identical batch.
  Xoshiro256pp rng2(1234);
  const auto again =
      puf.eval_batch(challenges.data(), challenges.size(), env, rng2);
  ASSERT_EQ(again.size(), batch.size());
  for (std::size_t x = 0; x < batch.size(); ++x) {
    EXPECT_EQ(batch[x], again[x]) << "lane " << x;
  }
  // A different batch seed is a different noise realization: with 64
  // lanes of 16 metastability-prone bits some response must move.
  Xoshiro256pp rng3(4321);
  const auto other =
      puf.eval_batch(challenges.data(), challenges.size(), env, rng3);
  bool any_diff = false;
  for (std::size_t x = 0; x < batch.size(); ++x) {
    if (!(batch[x] == other[x])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(AluPufBatch, DeviceBatchNoiseMatchesScalarStatistically) {
  // The batch path samples noise with a different (faster) sampler than
  // scalar eval, so the contract is distributional: the per-bit flip rate
  // of repeated noisy evaluations of one challenge must match the scalar
  // path's within statistical slack.
  const AluPuf puf(small_config(), 11);
  const auto env = Environment::nominal();
  Xoshiro256pp crng(7);
  const auto challenge = random_challenge(16, crng);
  const std::size_t reps = 512;

  Xoshiro256pp srng(100);
  const auto reference = puf.eval(challenge, env, srng);
  std::size_t scalar_flips = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    scalar_flips += (puf.eval(challenge, env, srng) ^ reference).popcount();
  }

  // Each batch lane is an independent realization of the same challenge.
  std::vector<Challenge> lanes(reps, challenge);
  Xoshiro256pp brng(200);
  const auto batch = puf.eval_batch(lanes.data(), lanes.size(), env, brng);
  std::size_t batch_flips = 0;
  for (const auto& r : batch) batch_flips += (r ^ reference).popcount();

  const double scalar_rate =
      static_cast<double>(scalar_flips) / (reps * 16.0);
  const double batch_rate = static_cast<double>(batch_flips) / (reps * 16.0);
  EXPECT_NEAR(batch_rate, scalar_rate, 0.05);
}

TEST(AluPufBatch, ClockConstraintBatchReproducibleAndMetastable) {
  const AluPuf puf(small_config(), 3);
  const auto env = Environment::nominal();
  // Aggressive deadline (a fifth of the worst-case settle): random
  // challenges settle early, so it takes a starved clock to push bits
  // into the bernoulli setup-violation path.  Those draws must stay
  // inside the per-lane derived stream (reproducible) while still
  // resolving like a fair coin across seeds (more inter-seed
  // disagreement than the unclocked device).
  const ClockConstraint clock{puf.max_settle_ps(env) * 0.2 + 20.0, 20.0};
  std::vector<Challenge> challenges;
  {
    Xoshiro256pp crng(5);
    for (int i = 0; i < 32; ++i) {
      challenges.push_back(random_challenge(16, crng));
    }
  }
  Xoshiro256pp rng_a(99);
  Xoshiro256pp rng_b(99);
  const auto clocked = puf.eval_batch(challenges.data(), challenges.size(),
                                      env, rng_a, &clock);
  const auto clocked_again = puf.eval_batch(
      challenges.data(), challenges.size(), env, rng_b, &clock);
  ASSERT_EQ(clocked.size(), challenges.size());
  for (std::size_t x = 0; x < clocked.size(); ++x) {
    EXPECT_EQ(clocked[x], clocked_again[x]) << "lane " << x;
  }

  const auto diff_bits = [&](const std::vector<RawResponse>& a,
                             const std::vector<RawResponse>& b) {
    std::size_t bits = 0;
    for (std::size_t x = 0; x < a.size(); ++x) bits += (a[x] ^ b[x]).popcount();
    return bits;
  };
  Xoshiro256pp rng_c(77);
  Xoshiro256pp rng_d(99);
  Xoshiro256pp rng_e(77);
  const auto clocked_other = puf.eval_batch(
      challenges.data(), challenges.size(), env, rng_c, &clock);
  const auto plain = puf.eval_batch(challenges.data(), challenges.size(), env,
                                    rng_d);
  const auto plain_other = puf.eval_batch(challenges.data(),
                                          challenges.size(), env, rng_e);
  EXPECT_GT(diff_bits(clocked, clocked_other),
            diff_bits(plain, plain_other));
}

TEST(AluPufBatch, EmulatorBatchBitIdenticalToScalar) {
  const AluPuf puf(small_config(), 21);
  const AluPufEmulator emulator(16, puf.export_model());
  std::vector<Challenge> challenges;
  Xoshiro256pp rng(31);
  for (int i = 0; i < 25; ++i) challenges.push_back(random_challenge(16, rng));
  std::vector<double> soft;
  emulator.eval_soft_batch(challenges.data(), challenges.size(), soft);
  for (std::size_t x = 0; x < challenges.size(); ++x) {
    const auto scalar_soft = emulator.eval_soft(challenges[x]);
    for (std::size_t i = 0; i < scalar_soft.size(); ++i) {
      EXPECT_EQ(soft[x * 16 + i], scalar_soft[i]);
    }
  }
}

TEST(AluPufBatch, EmulatorSoftWordsMatchScalar) {
  for (const std::size_t width : {16u, 32u}) {
    const AluPuf puf(small_config(width), 23);
    const AluPufEmulator emulator(width, puf.export_model());
    Xoshiro256pp rng(32);
    timingsim::BitSliceState state;
    for (const std::size_t count : {1u, 5u, 8u}) {
      std::vector<Challenge> challenges;
      std::vector<std::uint64_t> words;
      for (std::size_t x = 0; x < count; ++x) {
        challenges.push_back(random_challenge(width, rng));
        words.push_back(challenges.back().to_u64());
      }
      std::vector<double> soft(count * width);
      emulator.eval_soft_words(words.data(), count, soft.data(), state);
      for (std::size_t x = 0; x < count; ++x) {
        const auto scalar_soft = emulator.eval_soft(challenges[x]);
        for (std::size_t i = 0; i < width; ++i) {
          ASSERT_EQ(soft[x * width + i], scalar_soft[i])
              << "width " << width << " count " << count << " lane " << x;
        }
      }
    }
    if (width < 32) {
      const std::uint64_t stray = 1ULL << (2 * width);
      double out[32];
      EXPECT_THROW(emulator.eval_soft_words(&stray, 1, out, state),
                   std::invalid_argument);
    }
  }
}

TEST(AluPufBatch, DeviceQueryBatchMatchesObfuscationShape) {
  const ecc::ReedMuller1 code(5);
  const AluPufConfig config;  // width 32 to match RM(1,5)
  const PufDevice device(config, 8, code);
  const auto env = Environment::nominal();
  Xoshiro256pp rng(17);
  const std::uint64_t xs[] = {1, 2, 3};
  const auto outs = device.query_batch(xs, 3, env, rng);
  ASSERT_EQ(outs.size(), 3u);
  for (const auto& out : outs) {
    EXPECT_EQ(out.z.size(), device.output_bits());
    EXPECT_EQ(out.helpers.size(), ObfuscationNetwork::kResponsesPerOutput);
  }
  // The verifier reconstructs every batched output.
  PufEmulator verifier(32, device.export_model(), code);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto z = verifier.emulate(xs[i], outs[i].helpers);
    ASSERT_TRUE(z.has_value());
    EXPECT_EQ(*z, outs[i].z);
  }
}

TEST(AluPufBatch, SampleDelaysBatchMatchesPerGateLoop) {
  // sample_delays_batch draws through the lane fill; it must equal the
  // per-gate gaussian_fast() loop, zero-delay gates included, for a full
  // 8-lane block and for a block plus a scalar tail, and leave every lane
  // generator where that loop does.
  const AluPuf puf(small_config(32), 17);
  const auto nominal = puf.chip().nominal_delays(Environment::nominal());
  std::size_t zero_gates = 0;
  for (const double d : nominal.rise_ps) zero_gates += d <= 0.0 ? 1 : 0;
  ASSERT_GT(zero_gates, 0u);
  const variation::NoiseParams noise{.delay_jitter_ratio = 0.02};
  for (const std::size_t count : {8u, 13u}) {
    std::vector<Xoshiro256pp> rngs;
    for (std::size_t x = 0; x < count; ++x) rngs.emplace_back(900 + 37 * x);
    std::vector<Xoshiro256pp> ref_rngs = rngs;
    timingsim::BatchDelays got;
    timingsim::BatchDelays want;
    puf.chip().sample_delays_batch(nominal, noise, rngs.data(), count, got);
    testref::reference_sample_delays(nominal, noise, ref_rngs.data(), count,
                                     want);
    ASSERT_EQ(got.batch, want.batch);
    ASSERT_EQ(got.rise_ps.size(), want.rise_ps.size());
    ASSERT_EQ(got.fall_ps.size(), want.fall_ps.size());
    for (std::size_t k = 0; k < want.rise_ps.size(); ++k) {
      ASSERT_EQ(got.rise_ps[k], want.rise_ps[k]) << count << " lanes, " << k;
      ASSERT_EQ(got.fall_ps[k], want.fall_ps[k]) << count << " lanes, " << k;
    }
    for (std::size_t x = 0; x < count; ++x) {
      EXPECT_EQ(rngs[x].next(), ref_rngs[x].next()) << "lane " << x;
    }
  }
}

TEST(AluPufBatch, MatchesPerLaneScalarReference) {
  // eval_batch against its RNG contract restated lane by lane on the scalar
  // simulator (testref::reference_eval_batch): every response and every
  // lane generator's next draw are equal, across widths, block shapes (a
  // lone lane, partial and full 8-lane blocks, one and several 64-lane
  // words), operating points and a capture deadline that forces coins.
  // A third of the lanes add a single low bit 2^j (j < 4) to an all-ones
  // a: a carry chain from bit j to the top, which misses the deadline.
  for (const std::size_t width : {16u, 32u}) {
    const AluPuf puf(small_config(width), 29 + width);
    for (const Environment env : {Environment::nominal(),
                                  Environment{0.9, 120.0}}) {
      const ClockConstraint clock{0.8 * (puf.max_settle_ps(env) + 20.0),
                                  20.0};
      std::size_t coins = 0;
      for (const ClockConstraint* c :
           {static_cast<const ClockConstraint*>(nullptr), &clock}) {
        Xoshiro256pp crng(61 + width);
        AluPufBatchScratch scratch;
        for (const std::size_t count : {1u, 5u, 8u, 9u, 64u, 65u, 200u}) {
          std::vector<Challenge> challenges;
          for (std::size_t x = 0; x < count; ++x) {
            Challenge challenge = random_challenge(width, crng);
            if (x % 3 == 0) {
              const std::size_t j = crng.uniform_u64(4);
              for (std::size_t i = 0; i < width; ++i) {
                challenge.set(i, true);
                challenge.set(width + i, i == j);
              }
            }
            challenges.push_back(std::move(challenge));
          }
          Xoshiro256pp batch_rng(700 + count), ref_rng(700 + count);
          const auto batch = puf.eval_batch(challenges.data(), count, env,
                                            batch_rng, c, &scratch);
          auto want = testref::reference_eval_batch(
              puf, challenges.data(), count, env, ref_rng, c);
          ASSERT_EQ(batch.size(), count);
          for (std::size_t x = 0; x < count; ++x) {
            ASSERT_TRUE(batch[x] == want.responses[x])
                << "width " << width << " count " << count << " lane " << x;
            ASSERT_EQ(scratch.lane_rngs[x].next(), want.lane_rngs[x].next())
                << "width " << width << " count " << count << " lane " << x;
          }
          EXPECT_EQ(batch_rng.next(), ref_rng.next());
          if (c == nullptr) {
            EXPECT_EQ(want.coins, 0u);
          }
          coins += want.coins;
        }
      }
      EXPECT_GT(coins, 0u) << "width " << width;
    }
  }
}

TEST(AluPufBatch, WordFormMatchesBatch) {
  // eval_words is eval_batch's kernel on machine words: the same responses
  // and the same single rng.next() for 1..64 lanes, with and without a
  // capture deadline, in one reused scratch.
  const AluPuf puf(small_config(32), 13);
  const auto env = Environment::nominal();
  const ClockConstraint clock{puf.max_settle_ps(env) * 0.5 + 20.0, 20.0};
  Xoshiro256pp crng(41);
  AluPufBatchScratch scratch;
  for (const std::size_t count : {1u, 5u, 8u, 64u}) {
    std::vector<Challenge> challenges;
    std::vector<std::uint64_t> words;
    for (std::size_t x = 0; x < count; ++x) {
      challenges.push_back(random_challenge(32, crng));
      words.push_back(challenges.back().to_u64());
    }
    for (const ClockConstraint* c :
         {static_cast<const ClockConstraint*>(nullptr), &clock}) {
      Xoshiro256pp batch_rng(500 + count), word_rng(500 + count);
      const auto batch =
          puf.eval_batch(challenges.data(), count, env, batch_rng, c);
      std::vector<std::uint64_t> out(count, ~0ULL);
      puf.eval_words(words.data(), count, env, word_rng, c, scratch,
                     out.data());
      for (std::size_t x = 0; x < count; ++x) {
        ASSERT_EQ(out[x], batch[x].to_u64())
            << "count " << count << " lane " << x;
      }
      EXPECT_EQ(batch_rng.next(), word_rng.next());
    }
  }
  std::uint64_t out[65];
  Xoshiro256pp rng(1);
  std::vector<std::uint64_t> too_many(65, 0);
  EXPECT_THROW(
      puf.eval_words(too_many.data(), 65, env, rng, nullptr, scratch, out),
      std::invalid_argument);
  const AluPuf narrow(small_config(16), 13);
  const std::uint64_t stray = 1ULL << 32;
  EXPECT_THROW(narrow.eval_words(&stray, 1, env, rng, nullptr, scratch, out),
               std::invalid_argument);
}

// ------------------------------------------- the prover's PUF() word call

class ProverCallTest : public ::testing::Test {
 protected:
  ProverCallTest() : code_(5), device_(small_config(32), 77, code_) {}

  CallWords random_call(Xoshiro256pp& rng) const {
    CallWords challenges;
    for (auto& c : challenges) c = rng.next();
    return challenges;
  }

  ecc::ReedMuller1 code_;
  PufDevice device_;
};

TEST_F(ProverCallTest, QueryConsumesOneNextAndIsReproducible) {
  // The eval_batch RNG contract, per PUF() call: query_words and its
  // BitVector wrapper query_raw spend exactly one rng.next() of the
  // caller's generator, and the call is a function of that state.
  const auto env = Environment::nominal();
  Xoshiro256pp crng(3);
  AluPufBatchScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    const auto challenges = random_call(crng);
    std::array<Challenge, 8> bits;
    for (std::size_t r = 0; r < 8; ++r) bits[r] = BitVector(64, challenges[r]);
    Xoshiro256pp rng(900 + trial);
    Xoshiro256pp probe = rng, again = rng, raw_rng = rng;
    const auto out =
        device_.query_words(challenges, env, rng, nullptr, scratch);
    probe.next();
    EXPECT_EQ(rng.next(), probe.next());
    const auto repeat =
        device_.query_words(challenges, env, again, nullptr, scratch);
    EXPECT_EQ(repeat.z, out.z);
    EXPECT_EQ(repeat.helpers, out.helpers);
    const auto raw = device_.query_raw(bits, env, raw_rng);
    EXPECT_EQ(raw_rng.next(), again.next());
    EXPECT_EQ(raw.z.to_u64(), out.z);
    ASSERT_EQ(raw.helpers.size(), 8u);
    for (std::size_t r = 0; r < 8; ++r) {
      EXPECT_EQ(raw.helpers[r].size(), device_.helper_bits());
      EXPECT_EQ(raw.helpers[r].to_u64(), out.helpers[r]);
    }
  }
}

TEST_F(ProverCallTest, QueryMatchesReferencePipeline) {
  // query_words against the same call composed from eval_batch lanes,
  // BitVector syndromes and bit-by-bit obfuscation, with no clock and with
  // capture deadlines below T_ALU + T_set (which corrupt some bits).
  const auto env = Environment::nominal();
  const double settle = device_.raw_puf().max_settle_ps(env);
  const ClockConstraint slow{settle * 0.8 + 20.0, 20.0};
  const ClockConstraint starved{settle * 0.5 + 20.0, 20.0};
  Xoshiro256pp crng(4);
  AluPufBatchScratch scratch;
  for (const ClockConstraint* clock :
       {static_cast<const ClockConstraint*>(nullptr), &slow, &starved}) {
    for (int trial = 0; trial < 40; ++trial) {
      const auto challenges = random_call(crng);
      Xoshiro256pp rng(trial * 31 + 7), ref_rng(trial * 31 + 7);
      const auto out =
          device_.query_words(challenges, env, rng, clock, scratch);
      const auto ref = testref::reference_device_query(
          device_.raw_puf(), code_, challenges, env, ref_rng, clock);
      ASSERT_EQ(out.z, ref.z.to_u64()) << "trial " << trial;
      for (std::size_t r = 0; r < 8; ++r) {
        ASSERT_EQ(out.helpers[r], ref.helpers[r].to_u64()) << "trial " << trial;
      }
      ASSERT_EQ(rng.next(), ref_rng.next());
    }
  }
}

TEST_F(ProverCallTest, CallNoiseMatchesScalarStatistically) {
  // The prover's PUF() call now draws its noise through the batch
  // contract; the raw flip rate of its 8-lane kernel over many calls must
  // match scalar eval's within the eval_batch parity test's tolerance.
  const AluPuf& puf = device_.raw_puf();
  const auto env = Environment::nominal();
  Xoshiro256pp crng(5);
  const auto challenge = random_challenge(32, crng);
  const std::size_t calls = 64;

  Xoshiro256pp srng(100);
  const auto reference = puf.eval(challenge, env, srng);
  std::size_t scalar_flips = 0;
  for (std::size_t i = 0; i < calls * 8; ++i) {
    scalar_flips += (puf.eval(challenge, env, srng) ^ reference).popcount();
  }

  CallWords lanes;
  lanes.fill(challenge.to_u64());
  Xoshiro256pp wrng(200);
  AluPufBatchScratch scratch;
  std::size_t word_flips = 0;
  for (std::size_t call = 0; call < calls; ++call) {
    CallWords responses;
    puf.eval_words(lanes.data(), 8, env, wrng, nullptr, scratch,
                   responses.data());
    for (const auto y : responses) {
      word_flips += static_cast<std::size_t>(
          std::popcount(y ^ reference.to_u64()));
    }
  }
  const double bits = static_cast<double>(calls * 8 * 32);
  EXPECT_NEAR(word_flips / bits, scalar_flips / bits, 0.05);
}

}  // namespace
}  // namespace pufatt::alupuf

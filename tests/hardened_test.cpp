// Tests for the hardened obfuscation pairing and the XOR-Arbiter baseline —
// the two constructions that embody the "XOR as modeling defence" idea
// (paper references [34] and [27]).
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "alupuf/arbiter_puf.hpp"
#include "alupuf/obfuscation.hpp"
#include "ecc/reed_muller.hpp"
#include "support/rng.hpp"

namespace pufatt::alupuf {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

// --------------------------------------------------- hardened obfuscation

TEST(HardenedObfuscation, PairingIsAPerfectMatching) {
  const ObfuscationNetwork net(32, ObfuscationNetwork::Pairing::kHardened);
  // Every input bit must feed exactly one fold output: flipping any single
  // input bit flips exactly one fold bit.
  Xoshiro256pp rng(1);
  const auto base = BitVector::random(32, rng);
  const auto folded_base = net.fold(base);
  std::set<std::size_t> touched;
  for (std::size_t i = 0; i < 32; ++i) {
    auto flipped = base;
    flipped.flip(i);
    const auto folded = net.fold(flipped);
    ASSERT_EQ(folded.hamming_distance(folded_base), 1u) << "bit " << i;
    for (std::size_t k = 0; k < 16; ++k) {
      if (folded.get(k) != folded_base.get(k)) touched.insert(k);
    }
  }
  EXPECT_EQ(touched.size(), 16u);  // all outputs reachable
}

TEST(HardenedObfuscation, CodewordFoldIsNotConstant) {
  // The degeneracy fix: under the hardened pairing, RM(1,5) codewords no
  // longer fold to all-zero/all-one blocks (except the two trivial ones).
  const ecc::ReedMuller1 rm(5);
  const ObfuscationNetwork hardened(32, ObfuscationNetwork::Pairing::kHardened);
  int constant_folds = 0;
  for (std::uint64_t m = 0; m < 64; ++m) {
    const auto folded = hardened.fold(rm.encode(BitVector(6, m)));
    const auto w = folded.popcount();
    if (w == 0 || w == folded.size()) ++constant_folds;
  }
  // Only the all-zero and all-one codewords fold to constants.
  EXPECT_LE(constant_folds, 4);
  // Contrast: the paper pairing folds EVERY codeword to a constant
  // (covered by Obfuscation.FoldOfReedMullerCodewordIsConstant).
}

TEST(HardenedObfuscation, IdenticalErrorsDoNotCancel) {
  // The phase-2 rotations: XOR-identical corruption across all eight
  // responses must still disturb z (the extreme-overclock blind spot).
  const ecc::ReedMuller1 rm(5);
  const ObfuscationNetwork hardened(32, ObfuscationNetwork::Pairing::kHardened);
  Xoshiro256pp rng(2);
  int disturbed = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    std::array<BitVector, 8> clean;
    for (auto& r : clean) r = BitVector::random(32, rng);
    // Same nonzero codeword error on every response.
    const auto error = rm.encode(BitVector(6, 1 + rng.uniform_u64(62)));
    auto corrupted = clean;
    for (auto& r : corrupted) r ^= error;
    if (hardened.obfuscate(clean) != hardened.obfuscate(corrupted)) {
      ++disturbed;
    }
  }
  EXPECT_EQ(disturbed, trials);
}

TEST(HardenedObfuscation, DistinctCodewordErrorsDoNotCancel) {
  // Regression for the sharper version of the blind spot: helper-data
  // reconstruction errors are always RM(1,5) *codewords*, but they need not
  // be identical across the eight responses.  Under the paper pairing every
  // codeword folds to a constant block, so independent per-response
  // codeword errors still cancel in z whenever their constants line up —
  // a forged transcript can corrupt every response and leave z untouched.
  // The hardened pairing must never cancel them.
  const ecc::ReedMuller1 rm(5);
  const ObfuscationNetwork paper(32, ObfuscationNetwork::Pairing::kPaper);
  const ObfuscationNetwork hardened(32,
                                    ObfuscationNetwork::Pairing::kHardened);
  Xoshiro256pp rng(11);
  const int trials = 200;
  int paper_cancelled = 0;
  int hardened_cancelled = 0;
  for (int t = 0; t < trials; ++t) {
    std::array<BitVector, 8> clean;
    for (auto& r : clean) r = BitVector::random(32, rng);
    // A fresh nonzero codeword error per response.
    auto corrupted = clean;
    for (auto& r : corrupted) {
      r ^= rm.encode(BitVector(6, 1 + rng.uniform_u64(62)));
    }
    if (paper.obfuscate(clean) == paper.obfuscate(corrupted)) {
      ++paper_cancelled;
    }
    if (hardened.obfuscate(clean) == hardened.obfuscate(corrupted)) {
      ++hardened_cancelled;
    }
  }
  EXPECT_GT(paper_cancelled, trials / 20);  // the blind spot is common...
  EXPECT_EQ(hardened_cancelled, 0);         // ...and the fix closes it
}

TEST(HardenedObfuscation, PaperPairingCancelsIdenticalErrors) {
  // Confirms the blind spot exists in the paper-exact network (why the
  // protocol uses the hardened one).
  const ecc::ReedMuller1 rm(5);
  const ObfuscationNetwork paper(32, ObfuscationNetwork::Pairing::kPaper);
  Xoshiro256pp rng(3);
  std::array<BitVector, 8> clean;
  for (auto& r : clean) r = BitVector::random(32, rng);
  const auto error = rm.encode(BitVector(6, 37));
  auto corrupted = clean;
  for (auto& r : corrupted) r ^= error;
  EXPECT_EQ(paper.obfuscate(clean), paper.obfuscate(corrupted));
}

TEST(HardenedObfuscation, DeterministicAcrossInstances) {
  // Device and verifier construct the network independently; the pairing
  // must be identical.
  const ObfuscationNetwork a(32, ObfuscationNetwork::Pairing::kHardened);
  const ObfuscationNetwork b(32, ObfuscationNetwork::Pairing::kHardened);
  Xoshiro256pp rng(4);
  for (int t = 0; t < 20; ++t) {
    std::array<BitVector, 8> y;
    for (auto& r : y) r = BitVector::random(32, rng);
    EXPECT_EQ(a.obfuscate(y), b.obfuscate(y));
  }
}

TEST(HardenedObfuscation, StillUnbiased) {
  const ObfuscationNetwork net(32, ObfuscationNetwork::Pairing::kHardened);
  Xoshiro256pp rng(5);
  std::size_t ones = 0;
  const int trials = 1500;
  for (int t = 0; t < trials; ++t) {
    std::array<BitVector, 8> y;
    for (auto& r : y) {
      r = BitVector(32);
      for (std::size_t i = 0; i < 32; ++i) r.set(i, rng.bernoulli(0.65));
    }
    ones += net.obfuscate(y).popcount();
  }
  EXPECT_NEAR(static_cast<double>(ones) / (32.0 * trials), 0.5, 0.02);
}

// --------------------------------------------------------- XOR arbiter PUF

TEST(XorArbiterPuf, RejectsZeroK) {
  EXPECT_THROW(XorArbiterPuf(0, {}, 1), std::invalid_argument);
}

TEST(XorArbiterPuf, K1MatchesPlainArbiter) {
  const ArbiterPufParams params{.stages = 32};
  const XorArbiterPuf xpuf(1, params, 5);
  const ArbiterPuf plain(params, support::SplitMix64::mix(5));
  Xoshiro256pp rng(6);
  for (int t = 0; t < 100; ++t) {
    const auto c = BitVector::random(32, rng);
    EXPECT_EQ(xpuf.eval_ideal(c), plain.eval_ideal(c));
  }
}

TEST(XorArbiterPuf, NoiseCompoundsWithK) {
  // Per-bit flip rate grows with k (any chain flip flips the XOR).
  const ArbiterPufParams params{.stages = 64, .noise_sigma = 0.5};
  Xoshiro256pp rng(7);
  double prev_rate = 0.0;
  for (const std::size_t k : {1u, 4u, 8u}) {
    const XorArbiterPuf puf(k, params, 8);
    int flips = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
      const auto c = BitVector::random(64, rng);
      if (puf.eval(c, rng) != puf.eval(c, rng)) ++flips;
    }
    const double rate = static_cast<double>(flips) / trials;
    EXPECT_GT(rate, prev_rate);
    prev_rate = rate;
  }
}

}  // namespace
}  // namespace pufatt::alupuf

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "ecc/gf2_matrix.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/reed_muller.hpp"
#include "reference_pipeline.hpp"
#include "support/rng.hpp"

namespace pufatt::ecc {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

// --------------------------------------------------------------- Gf2Matrix

TEST(Gf2Matrix, MulVector) {
  Gf2Matrix m(2, 3);
  m.set(0, 0, true);
  m.set(0, 2, true);
  m.set(1, 1, true);
  const BitVector x = BitVector::from_string("101");  // bit0=1,bit1=0,bit2=1
  const BitVector y = m.mul_vector(x);
  EXPECT_EQ(y.get(0), false);  // 1 ^ 1
  EXPECT_EQ(y.get(1), false);  // 0
}

TEST(Gf2Matrix, RaggedRowsRejected) {
  std::vector<BitVector> rows{BitVector(3), BitVector(4)};
  EXPECT_THROW(Gf2Matrix m(std::move(rows)), std::invalid_argument);
}

TEST(Gf2Matrix, RankOfIdentity) {
  Gf2Matrix m(4, 4);
  for (int i = 0; i < 4; ++i) m.set(i, i, true);
  EXPECT_EQ(m.rank(), 4u);
}

TEST(Gf2Matrix, RankDetectsDependentRows) {
  Gf2Matrix m(3, 4);
  m.set(0, 0, true);
  m.set(0, 1, true);
  m.set(1, 1, true);
  m.set(1, 2, true);
  // row2 = row0 ^ row1
  m.set(2, 0, true);
  m.set(2, 2, true);
  EXPECT_EQ(m.rank(), 2u);
}

TEST(Gf2Matrix, NullSpaceOrthogonal) {
  Xoshiro256pp rng(5);
  Gf2Matrix m(4, 10);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 10; ++c) m.set(r, c, rng.bernoulli(0.5));
  }
  const auto basis = m.null_space();
  EXPECT_EQ(basis.size(), 10u - m.rank());
  for (const auto& v : basis) {
    EXPECT_EQ(m.mul_vector(v).popcount(), 0u);
  }
  // Basis vectors are independent.
  EXPECT_EQ(Gf2Matrix(basis).rank(), basis.size());
}

TEST(Gf2Matrix, SolveConsistentSystem) {
  Xoshiro256pp rng(6);
  Gf2Matrix m(5, 8);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 8; ++c) m.set(r, c, rng.bernoulli(0.5));
  }
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = BitVector::random(8, rng);
    const auto b = m.mul_vector(x);
    const auto sol = m.solve(b);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(m.mul_vector(*sol), b);
  }
}

TEST(Gf2Matrix, SolveDetectsInconsistency) {
  Gf2Matrix m(2, 2);
  m.set(0, 0, true);
  m.set(1, 0, true);  // rows identical in col 0
  BitVector b(2);
  b.set(0, true);  // x0 = 1 and x0 = 0: inconsistent
  EXPECT_FALSE(m.solve(b).has_value());
}

TEST(Gf2Matrix, Transpose) {
  Gf2Matrix m(2, 3);
  m.set(0, 2, true);
  m.set(1, 0, true);
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_TRUE(t.get(2, 0));
  EXPECT_TRUE(t.get(0, 1));
}

// ------------------------------------------------------------- Reed-Muller

TEST(ReedMuller, ParametersMatchPaper) {
  const ReedMuller1 rm5(5);
  EXPECT_EQ(rm5.n(), 32u);          // the paper's "[32,6,16]"
  EXPECT_EQ(rm5.k(), 6u);
  EXPECT_EQ(rm5.min_distance(), 16u);
  EXPECT_EQ(rm5.guaranteed_correction(), 7u);
}

TEST(ReedMuller, AllCodewordsHaveWeightZeroHalfOrFull) {
  const ReedMuller1 rm(4);
  for (std::uint64_t m = 0; m < 32; ++m) {
    const auto cw = rm.encode(BitVector(5, m));
    const auto w = cw.popcount();
    EXPECT_TRUE(w == 0 || w == 8 || w == 16) << "weight " << w;
  }
}

TEST(ReedMuller, RoundTripAllMessages) {
  const ReedMuller1 rm(5);
  for (std::uint64_t m = 0; m < 64; ++m) {
    const BitVector msg(6, m);
    const auto cw = rm.encode(msg);
    EXPECT_EQ(rm.syndrome(cw).popcount(), 0u);
    EXPECT_EQ(rm.decode(cw), msg);
  }
}

TEST(ReedMuller, CorrectsUpToSevenErrors) {
  const ReedMuller1 rm(5);
  Xoshiro256pp rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const auto msg = BitVector::random(6, rng);
    auto noisy = rm.encode(msg);
    const auto nerr = 1 + rng.uniform_u64(7);
    std::set<std::size_t> positions;
    while (positions.size() < nerr) positions.insert(rng.uniform_u64(32));
    for (const auto p : positions) noisy.flip(p);
    EXPECT_EQ(rm.decode(noisy), msg) << "errors=" << nerr;
  }
}

TEST(ReedMuller, OftenCorrectsBeyondGuarantee) {
  // ML decoding frequently succeeds past radius 7 — the behaviour behind
  // the paper's optimistic "up to 16 bit errors" phrasing.
  const ReedMuller1 rm(5);
  Xoshiro256pp rng(14);
  int success = 0;
  const int trials = 500;
  for (int trial = 0; trial < trials; ++trial) {
    const auto msg = BitVector::random(6, rng);
    auto noisy = rm.encode(msg);
    std::set<std::size_t> positions;
    while (positions.size() < 9) positions.insert(rng.uniform_u64(32));
    for (const auto p : positions) noisy.flip(p);
    if (rm.decode(noisy) == msg) ++success;
  }
  EXPECT_GT(success, trials / 3);
}

TEST(ReedMuller, ParityCheckFullRank) {
  const ReedMuller1 rm(5);
  EXPECT_EQ(rm.parity_check().rows(), 26u);
  EXPECT_EQ(rm.parity_check().rank(), 26u);
}

TEST(ReedMuller, CorrelationPeakIsNForCodewords) {
  const ReedMuller1 rm(5);
  Xoshiro256pp rng(15);
  const auto cw = rm.encode(BitVector::random(6, rng));
  EXPECT_EQ(rm.correlation_peak(cw), 32);
  auto noisy = cw;
  noisy.flip(0);
  noisy.flip(5);
  EXPECT_EQ(rm.correlation_peak(noisy), 32 - 4);
}

TEST(ReedMuller, RejectsBadM) {
  EXPECT_THROW(ReedMuller1(1), std::invalid_argument);
  EXPECT_THROW(ReedMuller1(17), std::invalid_argument);
}

/// Brute-force ML soft decoding of RM(1,5): the codeword maximizing the
/// reliability-weighted correlation sum_i llr[i] * (-1)^c_i, scanning the
/// 64 codewords as (linear part ascending, affine constant 0 then 1) and
/// keeping the first maximum — the decoder's documented tie-break.
std::uint64_t brute_force_rm5(const ReedMuller1& rm, const double* llr) {
  std::uint64_t best_word = 0;
  double best = -std::numeric_limits<double>::infinity();
  for (std::uint64_t linear = 0; linear < 32; ++linear) {
    for (std::uint64_t u0 = 0; u0 < 2; ++u0) {
      const auto cw = rm.encode(BitVector(6, u0 | linear << 1)).to_u64();
      double corr = 0.0;
      for (std::size_t i = 0; i < 32; ++i) {
        corr += (cw >> i) & 1ULL ? -llr[i] : llr[i];
      }
      if (corr > best) {
        best = corr;
        best_word = cw;
      }
    }
  }
  return best_word;
}

TEST(ReedMuller, WordSoftDecodeMatchesBruteForceMl) {
  const ReedMuller1 rm(5);
  Xoshiro256pp rng(16);
  double llr[32];
  for (int trial = 0; trial < 2000; ++trial) {
    // Even trials: continuous LLRs (no ties).  Odd trials: small integers,
    // whose sums are exact, so ties happen and exercise the tie-break.
    for (auto& v : llr) {
      v = trial % 2 == 0 ? rng.gaussian() * 10.0
                         : static_cast<double>(rng.uniform_u64(7)) - 3.0;
    }
    const auto word = rm.decode_soft_word(llr);
    ASSERT_TRUE(word.has_value());
    ASSERT_EQ(*word, brute_force_rm5(rm, llr)) << "trial " << trial;
    const auto bits =
        rm.decode_soft_to_codeword(std::vector<double>(llr, llr + 32));
    ASSERT_EQ(bits->to_u64(), *word) << "trial " << trial;
  }
  // Signed zeros: -1, 0 and 1 mixed with +0.0 and -0.0, so the transform
  // has signed-zero entries.  The first two words are all -0.0 and all
  // +0.0: every |f| is zero, the peak is index 0, and f[0] = -0.0 must
  // read as a non-negative affine constant, as in the brute force.
  for (int trial = 0; trial < 1000; ++trial) {
    for (auto& v : llr) {
      const auto pick = trial < 2 ? static_cast<std::uint64_t>(trial)
                                  : rng.uniform_u64(4);
      v = pick == 0   ? -0.0
          : pick == 1 ? 0.0
                      : static_cast<double>(rng.uniform_u64(3)) - 1.0;
    }
    const auto word = rm.decode_soft_word(llr);
    ASSERT_TRUE(word.has_value());
    ASSERT_EQ(*word, brute_force_rm5(rm, llr)) << "zeros trial " << trial;
  }
}

TEST(ReedMuller, WordSoftDecodeRejectsWideCodes) {
  const ReedMuller1 rm7(7);
  const std::vector<double> llr(128, 1.0);
  EXPECT_THROW(rm7.decode_soft_word(llr.data()), std::invalid_argument);
  // The BitVector API still decodes codes wider than a machine word.
  EXPECT_EQ(rm7.decode_soft_to_codeword(llr)->popcount(), 0u);
}

// ------------------------------------------------------------- Helper data

class HelperDataCodes : public ::testing::Test {
 protected:
  ReedMuller1 rm_{5};
};

TEST_F(HelperDataCodes, HelperSizeIsNMinusK) {
  const SyndromeHelper helper(rm_);
  EXPECT_EQ(helper.helper_bits(), 26u);
  EXPECT_EQ(helper.leaked_bits(), 26u);
  EXPECT_EQ(helper.response_bits(), 32u);
}

TEST_F(HelperDataCodes, ReproducesExactProverResponse) {
  const SyndromeHelper helper(rm_);
  Xoshiro256pp rng(16);
  for (int trial = 0; trial < 200; ++trial) {
    // Prover measures y'; verifier has reference within <= 7 bits.
    const auto y_prover = BitVector::random(32, rng);
    const auto h = helper.generate(y_prover);
    auto y_ref = y_prover;
    const auto nerr = rng.uniform_u64(8);
    std::set<std::size_t> positions;
    while (positions.size() < nerr) positions.insert(rng.uniform_u64(32));
    for (const auto p : positions) y_ref.flip(p);
    const auto reproduced = helper.reproduce(y_ref, h);
    ASSERT_TRUE(reproduced.has_value());
    EXPECT_EQ(*reproduced, y_prover)
        << "verifier must recover the prover's *exact* noisy response";
  }
}

TEST_F(HelperDataCodes, WorksWithOtherRmOrders) {
  // The construction is code-agnostic: RM(1,4) (the 16-bit FPGA width) and
  // RM(1,6) recover the exact response from references within their
  // guaranteed radius too.
  Xoshiro256pp rng(17);
  for (const unsigned m : {4u, 6u}) {
    const ReedMuller1 code(m);
    const SyndromeHelper helper(code);
    const std::size_t n = code.n();
    for (int trial = 0; trial < 100; ++trial) {
      const auto y_prover = BitVector::random(n, rng);
      const auto h = helper.generate(y_prover);
      auto y_ref = y_prover;
      std::set<std::size_t> positions;
      while (positions.size() < code.guaranteed_correction()) {
        positions.insert(rng.uniform_u64(n));
      }
      for (const auto p : positions) y_ref.flip(p);
      const auto reproduced = helper.reproduce(y_ref, h);
      ASSERT_TRUE(reproduced.has_value()) << "m=" << m;
      EXPECT_EQ(*reproduced, y_prover) << "m=" << m;
    }
  }
}

TEST_F(HelperDataCodes, FarReferenceFailsOrMismatches) {
  const SyndromeHelper helper(rm_);
  Xoshiro256pp rng(18);
  int mismatch_or_fail = 0;
  const int trials = 100;
  for (int trial = 0; trial < trials; ++trial) {
    const auto y_prover = BitVector::random(32, rng);
    const auto h = helper.generate(y_prover);
    const auto y_ref = BitVector::random(32, rng);  // unrelated reference
    const auto reproduced = helper.reproduce(y_ref, h);
    if (!reproduced || *reproduced != y_prover) ++mismatch_or_fail;
  }
  EXPECT_GT(mismatch_or_fail, trials * 9 / 10);
}

TEST_F(HelperDataCodes, HelperIsLinearInResponse) {
  // h(y1 ^ y2) = h(y1) ^ h(y2): the syndrome construction is linear, which
  // is what the hardware XOR-tree implementation relies on.
  const SyndromeHelper helper(rm_);
  Xoshiro256pp rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    const auto y1 = BitVector::random(32, rng);
    const auto y2 = BitVector::random(32, rng);
    EXPECT_EQ(helper.generate(y1 ^ y2),
              helper.generate(y1) ^ helper.generate(y2));
  }
}

TEST_F(HelperDataCodes, WordReproduceRoundTripsGeneratedHelpers) {
  // The prover's side computes h = H * y' (generate); the verifier's word
  // kernel must give back the exact y' from soft references that disagree
  // on a few low-reliability bits, and agree with the BitVector wrapper.
  const SyndromeHelper helper(rm_);
  Xoshiro256pp rng(20);
  for (int trial = 0; trial < 500; ++trial) {
    const auto y = BitVector::random(32, rng);
    const auto h = helper.generate(y);
    std::vector<double> llr(32);
    for (std::size_t i = 0; i < 32; ++i) {
      const double margin = 5.0 + 20.0 * rng.uniform();
      llr[i] = y.get(i) ? -margin : margin;
    }
    const auto nerr = rng.uniform_u64(10);
    for (std::uint64_t e = 0; e < nerr; ++e) {
      const auto p = rng.uniform_u64(32);
      llr[p] = (llr[p] < 0.0 ? 1.0 : -1.0) * rng.uniform();  // weak, wrong
    }
    // The kernel ignores bits above helper_bits() (the emulator rejects a
    // transcript word carrying any before it reconstructs).
    const std::uint64_t junk = rng.next() << helper.helper_bits();
    const auto word = helper.reproduce_soft_word(llr.data(), h.to_u64() | junk);
    ASSERT_TRUE(word.has_value());
    ASSERT_EQ(*word, y.to_u64()) << "trial " << trial;
    ASSERT_EQ(helper.reproduce_soft(llr, h), BitVector(32, *word));
  }
  // Against the BitVector reference (y0 by solving H x = h, unary minus,
  // the scalar transform) on RM(1,4), RM(1,5) and RM(1,6), which covers
  // the in-register RM(1,5) decoder and both widths of the scalar one:
  // continuous LLRs far from any codeword, small integers (exact sums, so
  // transform ties exercise the first-maximum tie-break), small integers
  // mixed with +0.0 and -0.0 (the sign flip must act on zeros), and a few
  // words whose transform holds NaNs.
  for (const unsigned m : {4u, 5u, 6u}) {
    const ReedMuller1 code(m);
    const SyndromeHelper code_helper(code);
    const std::size_t n = code.n();
    for (int trial = 0; trial < 300; ++trial) {
      const auto h = code_helper.generate(BitVector::random(n, rng));
      std::vector<double> llr(n);
      for (auto& v : llr) {
        switch (trial % 3) {
          case 0: v = rng.gaussian() * 10.0; break;
          case 1: v = static_cast<double>(rng.uniform_u64(7)) - 3.0; break;
          default: {
            const auto pick = rng.uniform_u64(4);
            v = pick == 0   ? 0.0
                : pick == 1 ? -0.0
                            : static_cast<double>(rng.uniform_u64(5)) - 2.0;
          }
        }
      }
      if (trial % 30 == 2) {
        // All zeros, signed so that the word to decode is all -0.0: the
        // peak is index 0 and f[0] = -0.0 is a non-negative constant.
        const auto y0 = code.preimage_word(h.to_u64());
        for (std::size_t i = 0; i < n; ++i) llr[i] = (y0 >> i) & 1 ? 0.0 : -0.0;
      }
      if (trial % 30 == 3) {
        // Bits 0 and 1 of the word to decode at +inf and -inf: f[0] is NaN
        // and every odd f is infinite, and the peak must still be where the
        // reference's scalar scan puts it.
        const auto y0 = code.preimage_word(h.to_u64());
        const double inf = std::numeric_limits<double>::infinity();
        llr[0] = y0 & 1 ? -inf : inf;
        llr[1] = (y0 >> 1) & 1 ? inf : -inf;
      }
      const auto word = code_helper.reproduce_soft_word(llr.data(), h.to_u64());
      ASSERT_TRUE(word.has_value());
      ASSERT_EQ(*word, testref::reference_reproduce_soft(code, llr, h).to_u64())
          << "m=" << m << " trial " << trial;
    }
  }
}

TEST_F(HelperDataCodes, GenerateWordMatchesGenerate) {
  // The prover's word syndrome against the BitVector H * y it replaces,
  // for RM(1,4..6): exactly helper_bits() wide, and response bits at or
  // above n() do not reach it.
  Xoshiro256pp rng(21);
  for (const unsigned m : {4u, 5u, 6u}) {
    const ReedMuller1 code(m);
    const SyndromeHelper helper(code);
    const std::size_t n = code.n();
    for (int trial = 0; trial < 500; ++trial) {
      const auto y = BitVector::random(n, rng);
      const auto expected = helper.generate(y).to_u64();
      ASSERT_EQ(helper.generate_word(y.to_u64()), expected)
          << "m=" << m << " trial " << trial;
      if (n < 64) {
        const std::uint64_t junk = rng.next() << n;
        ASSERT_EQ(helper.generate_word(y.to_u64() | junk), expected);
      }
      ASSERT_EQ(expected >> helper.helper_bits(), 0u);
    }
  }
}

TEST_F(HelperDataCodes, SizeValidation) {
  const SyndromeHelper helper(rm_);
  EXPECT_THROW(helper.generate(BitVector(31)), std::invalid_argument);
  EXPECT_THROW(helper.reproduce(BitVector(31), BitVector(26)),
               std::invalid_argument);
  EXPECT_THROW(helper.reproduce(BitVector(32), BitVector(25)),
               std::invalid_argument);
  EXPECT_THROW(helper.reproduce_soft(std::vector<double>(31), BitVector(26)),
               std::invalid_argument);
  EXPECT_THROW(helper.reproduce_soft(std::vector<double>(32), BitVector(25)),
               std::invalid_argument);
  // The word kernels take codes of at most 64 bits.
  const ReedMuller1 wide(7);
  const SyndromeHelper wide_helper(wide);
  const std::vector<double> llr(wide.n(), 1.0);
  EXPECT_THROW(wide_helper.reproduce_soft_word(llr.data(), 0),
               std::invalid_argument);
  EXPECT_THROW(wide_helper.generate_word(0), std::invalid_argument);
}

}  // namespace
}  // namespace pufatt::ecc

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "support/bitvec.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace pufatt::support {
namespace {

// ---------------------------------------------------------------- RNG

TEST(SplitMix64, KnownSequence) {
  // Reference values for seed 1234567 from the public-domain reference
  // implementation.
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(first, sm2.next());
  EXPECT_NE(sm.next(), sm2.next() + 1);  // streams advance identically
}

TEST(SplitMix64, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(SplitMix64::mix(42), SplitMix64::mix(42));
  EXPECT_NE(SplitMix64::mix(42), SplitMix64::mix(43));
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256pp a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256pp a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256pp rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, UniformRangeRespected) {
  Xoshiro256pp rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro, UniformU64Unbiased) {
  Xoshiro256pp rng(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_u64(10)];
  for (const auto c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 100);  // within 10% relative
  }
}

TEST(Xoshiro, UniformU64BoundOne) {
  Xoshiro256pp rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(Xoshiro, GaussianMoments) {
  Xoshiro256pp rng(5);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Xoshiro, GaussianScaled) {
  Xoshiro256pp rng(5);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Xoshiro, GaussianFastMomentsAndTail) {
  Xoshiro256pp rng(5);
  OnlineStats stats;
  int tail = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian_fast();
    stats.add(g);
    if (std::abs(g) > 3.0) ++tail;
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
  // P(|N(0,1)| > 3) = 0.27%; the ziggurat's wedge/tail paths must feed it.
  const double tail_rate = static_cast<double>(tail) / n;
  EXPECT_GT(tail_rate, 0.0013);
  EXPECT_LT(tail_rate, 0.0055);
}

TEST(Xoshiro, GaussianFastDeterministic) {
  Xoshiro256pp a(123);
  Xoshiro256pp b(123);
  for (int i = 0; i < 4096; ++i) {
    ASSERT_EQ(a.gaussian_fast(), b.gaussian_fast());
  }
}

// next() calls that separate `before` from `after` on the same stream.
int draws_between(Xoshiro256pp before, const Xoshiro256pp& after) {
  for (int k = 0; k <= 64; ++k) {
    Xoshiro256pp a = before;
    Xoshiro256pp b = after;
    if (a.next() == b.next() && a.next() == b.next()) return k;
    before.next();
  }
  return -1;
}

TEST(Xoshiro, GaussianFillLanesMatchesScalarDraws) {
  // The lane fill must be each lane's gaussian_fast() stream, byte for
  // byte: lane counts around the 8-lane vector block (tails, one lane),
  // and enough draws to reach every slow path the vector resolves: tail
  // draws, accepted and rejected wedges, and rows where several lanes of
  // one block miss the fast path at once.
  std::size_t tail = 0;
  std::size_t wedge = 0;
  std::size_t rejected = 0;
  std::size_t crowded = 0;  // block rows with >= 2 lanes off the fast path
  for (const std::size_t lanes : {1, 5, 8, 9, 16, 64}) {
    for (const std::size_t n : {0, 1, 385, 4096}) {
      std::vector<Xoshiro256pp> filled;
      for (std::size_t x = 0; x < lanes; ++x) {
        filled.emplace_back(SplitMix64::mix(lanes * 100000 + n * 100 + x));
      }
      std::vector<Xoshiro256pp> scalar = filled;
      std::vector<double> out(lanes * n);
      Xoshiro256pp::gaussian_fill_lanes(filled.data(), lanes, n, out.data(),
                                        1.5, 2.0);
      std::vector<int> draws(lanes * n);
      for (std::size_t x = 0; x < lanes; ++x) {
        for (std::size_t i = 0; i < n; ++i) {
          const Xoshiro256pp before = scalar[x];
          const double z = scalar[x].gaussian_fast();
          draws[i * lanes + x] = draws_between(before, scalar[x]);
          if (std::abs(z) > 3.442619855899) {
            ++tail;
          } else if (draws[i * lanes + x] == 2) {
            ++wedge;  // one layer draw plus one accepting uniform()
          } else if (draws[i * lanes + x] >= 3) {
            ++rejected;  // a wedge uniform() that sent it back to draw
          }
          ASSERT_EQ(out[i * lanes + x], 1.5 + 2.0 * z)
              << "lanes " << lanes << " n " << n << " lane " << x
              << " draw " << i;
        }
        ASSERT_EQ(filled[x].next(), scalar[x].next())
            << "lanes " << lanes << " n " << n << " lane " << x;
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t block = 0; block + 8 <= lanes; block += 8) {
          int missed = 0;
          for (std::size_t x = block; x < block + 8; ++x) {
            missed += draws[i * lanes + x] >= 2 ? 1 : 0;
          }
          crowded += missed >= 2 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(tail, 0u);
  EXPECT_GT(wedge, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(crowded, 0u);
}

TEST(Xoshiro, UniformLanesMatchesScalarDraws) {
  for (const std::size_t lanes : {1, 5, 8, 9, 64}) {
    for (const std::size_t n : {0, 1, 32, 45}) {
      std::vector<Xoshiro256pp> filled;
      for (std::size_t x = 0; x < lanes; ++x) filled.emplace_back(31 * x + n);
      std::vector<Xoshiro256pp> scalar = filled;
      std::vector<double> out(lanes * n);
      Xoshiro256pp::uniform_lanes(filled.data(), lanes, n, out.data());
      for (std::size_t x = 0; x < lanes; ++x) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out[i * lanes + x], scalar[x].uniform())
              << "lanes " << lanes << " lane " << x << " draw " << i;
        }
        ASSERT_EQ(filled[x].next(), scalar[x].next());
      }
    }
  }
}

// -------------------------------------------- vector decisions (simd.hpp)

// One lane's verdict, decided as the kernels decide: from the bracket
// where it is sure, else from the exact scalar expression.
bool decided(const simd::Verdict& v, bool exact) {
  return (v.unsure & 1u) != 0 ? exact : (v.yes & 1u) != 0;
}

TEST(SimdExp, SmallPolynomialWithinBound) {
  double worst = 0.0;
  for (int k = -30000; k <= 30000; ++k) {
    const double a = simd::kExpSmallDomain * k / 30000.0;
    double got[simd::kLanes];
    simd::store(got, simd::exp_small(simd::splat(a)));
    worst = std::max(worst, std::abs(got[0] - std::exp(a)));
  }
  EXPECT_LE(worst, simd::kExpSmallError);
}

TEST(SimdExp, RangeReducedWithinBound) {
  double worst = 0.0;
  for (int k = -70000; k <= 70000; ++k) {
    const double x = simd::kExpDomain * k / 70000.0;
    double got[simd::kLanes];
    simd::store(got, simd::exp(simd::splat(x)));
    worst = std::max(worst, std::abs(got[0] / std::exp(x) - 1.0));
  }
  EXPECT_LE(worst, simd::kExpError);
}

TEST(SimdVerdict, WedgeBracketHandsNearTiesToScalar) {
  // Layer pairs of the ziggurat's range (the widest gap first), points in
  // the wedge, and uniforms k ulps around the one that puts the scalar L
  // exactly at 1.0.  A sure lane must agree with the scalar test, and
  // the lanes it leaves unsure are those next to the tie.
  const double edges[][2] = {{3.442619855899, 3.223084},
                             {1.533, 1.5197},
                             {0.3628, 0.2723}};
  std::size_t unsure = 0;
  for (const auto& e : edges) {
    const double gap = std::exp(0.5 * (e[0] * e[0] - e[1] * e[1]));
    for (const double t : {0.1, 0.5, 0.9}) {
      const double val = e[1] + t * (e[0] - e[1]);
      const double a0 = -0.5 * (e[0] * e[0] - val * val);
      const double a1 = -0.5 * (e[1] * e[1] - val * val);
      const double f0 = std::exp(a0);
      const double f1 = std::exp(a1);
      const double tie = (1.0 - f1) / (f0 - f1);
      for (const int k : {-1000000, -1000, -3, -1, 0, 1, 3, 1000, 1000000}) {
        double u = tie;
        for (int s = 0; s < std::abs(k); ++s) {
          u = std::nextafter(u, k < 0 ? 0.0 : 1.0);
        }
        const bool exact = f1 + u * (f0 - f1) < 1.0;
        const simd::Verdict v = simd::wedge_verdict(
            simd::splat(a0), simd::splat(gap), simd::splat(u));
        unsure += v.unsure & 1u;
        if (std::abs(k) <= 3) {
          EXPECT_EQ(v.unsure & 1u, 1u) << "k " << k;
        }
        EXPECT_EQ(decided(v, exact), exact)
            << "edges " << e[0] << " t " << t << " k " << k;
      }
    }
  }
  EXPECT_GT(unsure, 0u);
  // Outside the polynomial's domain, and NaN, always go to the scalar.
  for (const double a0 : {-0.8, std::nan("")}) {
    const simd::Verdict v = simd::wedge_verdict(
        simd::splat(a0), simd::splat(1.5), simd::splat(0.5));
    EXPECT_EQ(v.unsure, 0xFF);
  }
}

TEST(SimdVerdict, LogisticBracketHandsNearTiesToScalar) {
  // Uniforms k ulps around p = 1 / (1 + e^x), the arbiter's scalar
  // probability, across the approximation's domain.
  std::size_t unsure = 0;
  for (const double x : {-699.0, -40.0, -1.3, -1e-300, 0.0, 0.7, 35.0,
                         699.0}) {
    const double p = 1.0 / (1.0 + std::exp(x));
    for (const int k : {-1000000, -1000, -3, -1, 0, 1, 3, 1000, 1000000}) {
      double u = p;
      for (int s = 0; s < std::abs(k); ++s) {
        u = std::nextafter(u, k < 0 ? 0.0 : 1.0);
      }
      const bool exact = u < p;
      const simd::Verdict v =
          simd::logistic_verdict(simd::splat(u), simd::splat(x));
      unsure += v.unsure & 1u;
      if (std::abs(k) <= 3) {
        EXPECT_EQ(v.unsure & 1u, 1u) << "x " << x;
      }
      EXPECT_EQ(decided(v, exact), exact) << "x " << x << " k " << k;
    }
  }
  EXPECT_GT(unsure, 0u);
  for (const double x : {-701.0, 800.0, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    const simd::Verdict v =
        simd::logistic_verdict(simd::splat(0.5), simd::splat(x));
    EXPECT_EQ(v.unsure, 0xFF) << "x " << x;
  }
}

TEST(Xoshiro, BernoulliProbability) {
  Xoshiro256pp rng(3);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Xoshiro, SplitProducesIndependentStream) {
  Xoshiro256pp a(1);
  Xoshiro256pp child = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == child.next()) ++same;
  }
  EXPECT_LE(same, 1);
}

// ---------------------------------------------------------------- BitVector

TEST(BitVector, DefaultEmpty) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, ZeroInitialized) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, FromValue) {
  BitVector v(8, 0b10110010);
  EXPECT_TRUE(v.get(1));
  EXPECT_FALSE(v.get(0));
  EXPECT_TRUE(v.get(7));
  EXPECT_EQ(v.popcount(), 4u);
  EXPECT_EQ(v.to_u64(), 0b10110010u);
}

TEST(BitVector, FromValueMasksHighBits) {
  BitVector v(4, 0xFF);
  EXPECT_EQ(v.to_u64(), 0xFu);
  EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVector, SetGetFlip) {
  BitVector v(70);
  v.set(69, true);
  EXPECT_TRUE(v.get(69));
  v.flip(69);
  EXPECT_FALSE(v.get(69));
  v.flip(0);
  EXPECT_TRUE(v.get(0));
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(8);
  EXPECT_THROW(v.get(8), std::out_of_range);
  EXPECT_THROW(v.set(100, true), std::out_of_range);
  EXPECT_THROW(v.flip(8), std::out_of_range);
}

TEST(BitVector, StringRoundTrip) {
  const std::string s = "1011001110001111";
  const BitVector v = BitVector::from_string(s);
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.size(), s.size());
}

TEST(BitVector, FromStringRejectsBadChars) {
  EXPECT_THROW(BitVector::from_string("10x1"), std::invalid_argument);
}

TEST(BitVector, XorAndHamming) {
  const BitVector a = BitVector::from_string("1100");
  const BitVector b = BitVector::from_string("1010");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVector, HammingSizeMismatchThrows) {
  BitVector a(4), b(5);
  EXPECT_THROW(a.hamming_distance(b), std::invalid_argument);
  EXPECT_THROW(a ^= b, std::invalid_argument);
}

TEST(BitVector, AndOr) {
  const BitVector a = BitVector::from_string("1100");
  const BitVector b = BitVector::from_string("1010");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
}

TEST(BitVector, SliceAndConcat) {
  const BitVector v = BitVector::from_string("11110000");
  const BitVector low = v.slice(0, 4);
  const BitVector high = v.slice(4, 4);
  EXPECT_EQ(low.to_string(), "0000");
  EXPECT_EQ(high.to_string(), "1111");
  EXPECT_EQ(low.concat(high), v);
}

TEST(BitVector, SliceOutOfRangeThrows) {
  BitVector v(8);
  EXPECT_THROW(v.slice(4, 8), std::out_of_range);
}

TEST(BitVector, ParityMatchesPopcount) {
  Xoshiro256pp rng(17);
  for (int i = 0; i < 50; ++i) {
    const auto v = BitVector::random(97, rng);
    EXPECT_EQ(v.parity(), v.popcount() % 2 == 1);
  }
}

TEST(BitVector, RandomHasExpectedDensity) {
  Xoshiro256pp rng(21);
  std::size_t ones = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) ones += BitVector::random(256, rng).popcount();
  EXPECT_NEAR(static_cast<double>(ones) / (256.0 * trials), 0.5, 0.02);
}

TEST(BitVector, CrossWordBoundaryOps) {
  BitVector v(128);
  v.set(63, true);
  v.set(64, true);
  EXPECT_EQ(v.popcount(), 2u);
  const auto s = v.slice(63, 2);
  EXPECT_EQ(s.popcount(), 2u);
}

// ---------------------------------------------------------------- Stats

TEST(OnlineStats, SimpleSequence) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, SingleSampleVarianceZero) {
  OnlineStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Histogram, BasicCounts) {
  Histogram h(10);
  h.add(3);
  h.add(3);
  h.add(7);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bin(3), 2u);
  EXPECT_EQ(h.bin(7), 1u);
  EXPECT_DOUBLE_EQ(h.fraction(3), 2.0 / 3.0);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(4);
  h.add(100);
  EXPECT_EQ(h.bin(3), 1u);
  EXPECT_EQ(h.clamped(), 1u);
}

TEST(Histogram, MeanAndStd) {
  Histogram h(10);
  for (int i = 0; i < 50; ++i) h.add(2);
  for (int i = 0; i < 50; ++i) h.add(4);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 1.0);
}

TEST(Histogram, Quantile) {
  Histogram h(100);
  for (std::size_t i = 0; i < 100; ++i) h.add(i);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 49.0, 1.0);
  EXPECT_EQ(h.quantile(1.0), 99u);
}

TEST(Histogram, RenderContainsLabelAndCounts) {
  Histogram h(5);
  h.add(2);
  const std::string out = h.render("demo");
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
}

// ---------------------------------------------------------------- Table

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, ShortRowsTolerated) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW(t.render());
}

}  // namespace
}  // namespace pufatt::support

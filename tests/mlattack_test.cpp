#include <gtest/gtest.h>

#include "alupuf/arbiter_puf.hpp"
#include "ecc/reed_muller.hpp"
#include "mlattack/dataset.hpp"
#include "mlattack/logreg.hpp"

namespace pufatt::mlattack {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

// ---------------------------------------------------------------- LogReg

TEST(LogisticRegression, RejectsZeroFeatures) {
  EXPECT_THROW(LogisticRegression(0), std::invalid_argument);
}

TEST(LogisticRegression, PredictValidatesSize) {
  LogisticRegression model(3);
  EXPECT_THROW(model.predict_probability({1.0}), std::invalid_argument);
}

TEST(LogisticRegression, UntrainedPredictsHalf) {
  LogisticRegression model(4);
  EXPECT_DOUBLE_EQ(model.predict_probability({1, 1, 1, 1}), 0.5);
}

TEST(LogisticRegression, LearnsLinearlySeparableData) {
  // Labels = sign of a fixed linear function: LR must reach ~100%.
  Xoshiro256pp rng(1);
  const std::vector<double> true_w{1.5, -2.0, 0.7, 0.0, 0.3};
  std::vector<Example> train, test;
  auto make = [&](std::size_t n, std::vector<Example>& out) {
    for (std::size_t i = 0; i < n; ++i) {
      Example ex;
      double z = 0.0;
      for (const auto w : true_w) {
        ex.features.push_back(rng.gaussian());
        z += w * ex.features.back();
      }
      ex.label = z > 0.0;
      out.push_back(std::move(ex));
    }
  };
  make(2000, train);
  make(500, test);
  LogisticRegression model(true_w.size());
  model.train(train, {}, rng);
  EXPECT_GT(model.accuracy(test), 0.95);
}

TEST(LogisticRegression, RandomLabelsStayNearChance) {
  Xoshiro256pp rng(2);
  std::vector<Example> train, test;
  for (int i = 0; i < 1500; ++i) {
    Example ex;
    for (int f = 0; f < 8; ++f) ex.features.push_back(rng.gaussian());
    ex.label = rng.bernoulli(0.5);
    (i < 1000 ? train : test).push_back(std::move(ex));
  }
  LogisticRegression model(8);
  model.train(train, {}, rng);
  EXPECT_LT(model.accuracy(test), 0.60);
}

TEST(LogisticRegression, EmptyDatasetIsNoop) {
  Xoshiro256pp rng(3);
  LogisticRegression model(2);
  EXPECT_NO_THROW(model.train({}, {}, rng));
  EXPECT_DOUBLE_EQ(model.accuracy({}), 0.0);
}

// ---------------------------------------------------------------- features

TEST(Features, ArbiterParityTransform) {
  // The arbiter features the LR attack learns on: the all-zero challenge
  // maps to all +1 (every parity product is over zeros).
  const auto phi = alupuf::ArbiterPuf::features(BitVector::from_string("0000"));
  ASSERT_EQ(phi.size(), 5u);
  for (const auto v : phi) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Features, AluFeatureLayout) {
  Xoshiro256pp rng(4);
  const auto c = BitVector::random(32, rng);  // width 16
  const auto f = alu_features(c);
  EXPECT_EQ(f.size(), 32u + 16u + 1u);
  EXPECT_DOUBLE_EQ(f.back(), 1.0);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(f[i], c.get(i) ? 1.0 : -1.0);
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const bool p = c.get(i) != c.get(16 + i);
    EXPECT_DOUBLE_EQ(f[32 + i], p ? 1.0 : -1.0);
  }
}

TEST(Features, WordFeatures) {
  const auto f = word_features(0x1ULL);
  EXPECT_EQ(f.size(), 65u);
  EXPECT_DOUBLE_EQ(f[0], 1.0);
  EXPECT_DOUBLE_EQ(f[1], -1.0);
  EXPECT_DOUBLE_EQ(f.back(), 1.0);
}

// ----------------------------------------------- parallel CRP collection

bool same_examples(const std::vector<Example>& a,
                   const std::vector<Example>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].features != b[i].features) {
      return false;
    }
  }
  return true;
}

TEST(ParallelCrp, AluRawInvariantAcrossThreadCounts) {
  // The determinism contract: fixed block boundaries + per-shard seeds =>
  // the dataset is a pure function of (seed, count, block), not threads.
  const alupuf::AluPuf puf(
      [] {
        alupuf::AluPufConfig c;
        c.width = 16;
        return c;
      }(),
      7);
  ParallelCrpConfig config;
  config.block = 64;
  config.seed = 5;
  config.threads = 1;
  const auto one = collect_alu_raw_parallel(puf, 3, 500, config);
  config.threads = 2;
  const auto two = collect_alu_raw_parallel(puf, 3, 500, config);
  config.threads = 8;
  const auto eight = collect_alu_raw_parallel(puf, 3, 500, config);
  ASSERT_EQ(one.size(), 500u);
  EXPECT_TRUE(same_examples(one, two));
  EXPECT_TRUE(same_examples(one, eight));
  // Sanity: labels are not degenerate.
  std::size_t ones = 0;
  for (const auto& e : one) ones += e.label ? 1 : 0;
  EXPECT_GT(ones, 50u);
  EXPECT_LT(ones, 450u);
}

TEST(ParallelCrp, ObfuscatedInvariantAcrossThreadCounts) {
  const ecc::ReedMuller1 code(5);
  const alupuf::PufDevice device(alupuf::AluPufConfig{}, 9, code);
  ParallelCrpConfig config;
  config.block = 32;
  config.seed = 12;
  config.threads = 1;
  const auto one = collect_obfuscated_parallel(device, 5, 128, config);
  config.threads = 8;
  const auto eight = collect_obfuscated_parallel(device, 5, 128, config);
  ASSERT_EQ(one.size(), 128u);
  EXPECT_TRUE(same_examples(one, eight));
}

}  // namespace
}  // namespace pufatt::mlattack

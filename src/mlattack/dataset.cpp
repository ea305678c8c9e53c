#include "mlattack/dataset.hpp"

#include "support/parallel.hpp"

namespace pufatt::mlattack {

using support::BitVector;

namespace {

support::Xoshiro256pp shard_rng(std::uint64_t seed, std::size_t shard) {
  return support::Xoshiro256pp(
      support::SplitMix64::mix(seed ^ (0xA5A5A5A5A5A5A5A5ULL + shard)));
}

}  // namespace

std::vector<double> alu_features(const BitVector& challenge) {
  const std::size_t width = challenge.size() / 2;
  std::vector<double> features;
  features.reserve(challenge.size() + width + 1);
  for (std::size_t i = 0; i < challenge.size(); ++i) {
    features.push_back(challenge.get(i) ? 1.0 : -1.0);
  }
  for (std::size_t i = 0; i < width; ++i) {
    const bool propagate = challenge.get(i) != challenge.get(width + i);
    features.push_back(propagate ? 1.0 : -1.0);
  }
  features.push_back(1.0);
  return features;
}

std::vector<double> word_features(std::uint64_t x) {
  std::vector<double> features;
  features.reserve(65);
  for (unsigned i = 0; i < 64; ++i) {
    features.push_back(((x >> i) & 1ULL) != 0 ? 1.0 : -1.0);
  }
  features.push_back(1.0);
  return features;
}

std::vector<Example> collect_alu_raw_parallel(
    const alupuf::AluPuf& puf, std::size_t bit, std::size_t count,
    const ParallelCrpConfig& config) {
  const auto env = variation::Environment::nominal();
  std::vector<Example> out(count);
  const std::size_t workers = std::max<std::size_t>(1, config.threads);
  std::vector<alupuf::AluPufBatchScratch> scratch(workers);
  support::parallel_blocks(
      count, config.block, config.threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end,
          std::size_t slot) {
        auto rng = shard_rng(config.seed, shard);
        std::vector<alupuf::Challenge> challenges;
        challenges.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          challenges.push_back(
              BitVector::random(puf.challenge_bits(), rng));
        }
        const auto responses = puf.eval_batch(
            challenges.data(), challenges.size(), env, rng,
            /*clock=*/nullptr, &scratch[slot]);
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = Example{alu_features(challenges[i - begin]),
                           responses[i - begin].get(bit)};
        }
      });
  return out;
}

std::vector<Example> collect_obfuscated_parallel(
    const alupuf::PufDevice& device, std::size_t bit, std::size_t count,
    const ParallelCrpConfig& config) {
  const auto env = variation::Environment::nominal();
  std::vector<Example> out(count);
  const std::size_t workers = std::max<std::size_t>(1, config.threads);
  std::vector<alupuf::AluPufBatchScratch> scratch(workers);
  support::parallel_blocks(
      count, config.block, config.threads,
      [&](std::size_t shard, std::size_t begin, std::size_t end,
          std::size_t slot) {
        auto rng = shard_rng(config.seed, shard);
        std::vector<std::uint64_t> xs(end - begin);
        for (auto& x : xs) x = rng.next();
        const auto results = device.query_batch(xs.data(), xs.size(), env, rng,
                                                /*clock=*/nullptr,
                                                &scratch[slot]);
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = Example{word_features(xs[i - begin]),
                           results[i - begin].z.get(bit)};
        }
      });
  return out;
}

}  // namespace pufatt::mlattack

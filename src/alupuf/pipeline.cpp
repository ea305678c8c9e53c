#include "alupuf/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace pufatt::alupuf {

using support::BitVector;

namespace {

/// Widest PUF whose 2*width-bit challenge fits one machine word: the
/// verifier's word pipeline (PufEmulator::emulate_words).
constexpr std::size_t kMaxWordWidth = 32;

const AluPufEmulator& non_null(
    const std::shared_ptr<const AluPufEmulator>& emulator) {
  if (!emulator) throw std::invalid_argument("PufEmulator: null model");
  return *emulator;
}

}  // namespace

std::vector<Challenge> ChallengeExpander::expand(std::uint64_t x,
                                                 std::size_t width) {
  std::vector<Challenge> out;
  out.reserve(ObfuscationNetwork::kResponsesPerOutput);
  support::SplitMix64 prg(x);
  for (std::size_t r = 0; r < ObfuscationNetwork::kResponsesPerOutput; ++r) {
    Challenge c(2 * width);
    for (std::size_t base = 0; base < 2 * width; base += 64) {
      const std::uint64_t word = prg.next();
      const std::size_t chunk = std::min<std::size_t>(64, 2 * width - base);
      for (std::size_t i = 0; i < chunk; ++i) {
        c.set(base + i, (word >> i) & 1ULL);
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

PufDevice::PufDevice(const AluPufConfig& config, std::uint64_t chip_seed,
                     const ecc::BinaryCode& code)
    : puf_(config, chip_seed),
      helper_(code),
      obfuscation_(config.width, ObfuscationNetwork::Pairing::kHardened) {
  if (code.n() != config.width) {
    throw std::invalid_argument(
        "PufDevice: code length must equal the PUF response width");
  }
}

PufOutputWords PufDevice::query_words(const CallWords& challenges,
                                      const variation::Environment& env,
                                      support::Xoshiro256pp& rng,
                                      const ClockConstraint* clock,
                                      AluPufBatchScratch& scratch) const {
  CallWords responses;
  puf_.eval_words(challenges.data(), challenges.size(), env, rng, clock,
                  scratch, responses.data());
  PufOutputWords out;
  for (std::size_t r = 0; r < responses.size(); ++r) {
    out.helpers[r] = helper_.generate_word(responses[r]);
  }
  out.z = obfuscation_.obfuscate_words(responses);
  return out;
}

PufOutput PufDevice::query(std::uint64_t challenge,
                           const variation::Environment& env,
                           support::Xoshiro256pp& rng,
                           const ClockConstraint* clock) const {
  const auto expanded =
      ChallengeExpander::expand(challenge, puf_.response_bits());
  std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput> challenges;
  std::copy(expanded.begin(), expanded.end(), challenges.begin());
  return query_raw(challenges, env, rng, clock);
}

PufOutput PufDevice::query_raw(
    const std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput>&
        challenges,
    const variation::Environment& env, support::Xoshiro256pp& rng,
    const ClockConstraint* clock) const {
  CallWords words;
  for (std::size_t r = 0; r < challenges.size(); ++r) {
    if (challenges[r].size() != puf_.challenge_bits()) {
      throw std::invalid_argument("AluPuf: challenge must be 2*width bits");
    }
    words[r] = challenges[r].to_u64();
  }
  AluPufBatchScratch scratch;
  const auto call = query_words(words, env, rng, clock, scratch);
  PufOutput out;
  out.z = BitVector(output_bits(), call.z);
  out.helpers.reserve(call.helpers.size());
  for (const auto h : call.helpers) out.helpers.emplace_back(helper_bits(), h);
  return out;
}

std::vector<PufOutput> PufDevice::query_batch(
    const std::uint64_t* challenges, std::size_t count,
    const variation::Environment& env, support::Xoshiro256pp& rng,
    const ClockConstraint* clock, AluPufBatchScratch* scratch) const {
  constexpr std::size_t kPer = ObfuscationNetwork::kResponsesPerOutput;
  std::vector<Challenge> raw;
  raw.reserve(count * kPer);
  for (std::size_t x = 0; x < count; ++x) {
    auto expanded =
        ChallengeExpander::expand(challenges[x], puf_.response_bits());
    for (auto& c : expanded) raw.push_back(std::move(c));
  }
  const auto responses =
      puf_.eval_batch(raw.data(), raw.size(), env, rng, clock, scratch);
  std::vector<PufOutput> outputs;
  outputs.reserve(count);
  for (std::size_t x = 0; x < count; ++x) {
    std::array<BitVector, kPer> group;
    PufOutput out;
    out.helpers.reserve(kPer);
    for (std::size_t r = 0; r < kPer; ++r) {
      group[r] = responses[x * kPer + r];
      out.helpers.push_back(helper_.generate(group[r]));
    }
    out.z = obfuscation_.obfuscate(group);
    outputs.push_back(std::move(out));
  }
  return outputs;
}

PufEmulator::PufEmulator(std::shared_ptr<const AluPufEmulator> emulator,
                         const ecc::BinaryCode& code)
    : emulator_(std::move(emulator)),
      helper_(code),
      obfuscation_(non_null(emulator_).response_bits(),
                   ObfuscationNetwork::Pairing::kHardened) {
  const std::size_t width = emulator_->response_bits();
  if (code.n() != width) {
    throw std::invalid_argument(
        "PufEmulator: code length must equal the PUF response width");
  }
  if (width > kMaxWordWidth) {
    throw std::invalid_argument("PufEmulator: width must be <= 32");
  }
}

PufEmulator::PufEmulator(std::size_t width, const variation::DelayTable& model,
                         const ecc::BinaryCode& code,
                         const netlist::AluPufLayout& layout)
    : PufEmulator(std::make_shared<const AluPufEmulator>(width, model, layout),
                  code) {}

std::optional<BitVector> PufEmulator::emulate(
    std::uint64_t challenge, const std::vector<BitVector>& helpers) const {
  const auto expanded =
      ChallengeExpander::expand(challenge, emulator_->response_bits());
  std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput> challenges;
  std::copy(expanded.begin(), expanded.end(), challenges.begin());
  return emulate_raw(challenges, helpers);
}

std::optional<BitVector> PufEmulator::emulate_raw(
    const std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput>&
        challenges,
    const std::vector<BitVector>& helpers) const {
  if (helpers.size() != ObfuscationNetwork::kResponsesPerOutput) {
    return std::nullopt;
  }
  Words challenge_words, helper_words;
  for (std::size_t r = 0; r < challenges.size(); ++r) {
    if (challenges[r].size() != 2 * emulator_->response_bits()) {
      throw std::invalid_argument("PufEmulator: challenge must be 2*width bits");
    }
    if (helpers[r].size() != helper_bits()) {
      throw std::invalid_argument("PufEmulator: bad helper size");
    }
    challenge_words[r] = challenges[r].to_u64();
    helper_words[r] = helpers[r].to_u64();
  }
  timingsim::BitSliceState state;
  const auto z = emulate_words(challenge_words, helper_words, state).z;
  if (!z) return std::nullopt;
  return BitVector(output_bits(), *z);
}

PufEmulator::CallResult PufEmulator::emulate_words(
    const Words& challenges, const Words& helpers,
    timingsim::BitSliceState& state) const {
  constexpr std::size_t kPer = ObfuscationNetwork::kResponsesPerOutput;
  const std::size_t width = emulator_->response_bits();
  CallResult result;
  const std::size_t helper_width = helper_bits();
  for (const auto h : helpers) {
    if (helper_width < 64 && (h >> helper_width) != 0) return result;
  }
  // All 8 soft emulations in one batched pass over the timing engine —
  // bit-identical to per-challenge eval_soft (the emulator is noise-free),
  // and the dominant cost of a verifier job.
  std::array<double, kPer * kMaxWordWidth> soft{};
  emulator_->eval_soft_words(challenges.data(), kPer, soft.data(), state);
  Words responses;
  for (std::size_t r = 0; r < kPer; ++r) {
    // Soft-decision reconstruction: the emulation's race margins tell the
    // decoder which bits the physical arbiters resolve unreliably.
    const double* const llr = soft.data() + r * width;
    const auto reconstructed = helper_.reproduce_soft_word(llr, helpers[r]);
    if (!reconstructed) return result;
    // Distance budgets against the reference (sign of the margins): plain
    // Hamming plus the reliability-weighted likelihood-ratio statistic,
    // summed in bit order.
    std::uint64_t reference = 0;
    for (std::size_t i = 0; i < width; ++i) {
      reference |= static_cast<std::uint64_t>(llr[i] < 0.0) << i;
    }
    std::uint64_t disagree = *reconstructed ^ reference;
    result.stats.distance += static_cast<std::size_t>(std::popcount(disagree));
    for (; disagree != 0; disagree &= disagree - 1) {
      result.stats.weighted_ps += std::abs(llr[std::countr_zero(disagree)]);
    }
    responses[r] = *reconstructed;
  }
  if (result.stats.distance > kMaxCallDistance ||
      result.stats.weighted_ps > kMaxWeightedDistancePs) {
    return result;
  }
  result.z = obfuscation_.obfuscate_words(responses);
  return result;
}

}  // namespace pufatt::alupuf

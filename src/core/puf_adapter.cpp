#include "core/puf_adapter.hpp"

#include <algorithm>
#include <stdexcept>

namespace pufatt::core {

using support::BitVector;

alupuf::Challenge challenge_from_u64(std::uint64_t challenge) {
  return BitVector(64, challenge);
}

std::uint32_t helper_to_word(const BitVector& helper) {
  if (helper.size() > 32) {
    throw std::invalid_argument("helper_to_word: helper exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(helper.to_u64());
}

BitVector helper_from_word(std::uint32_t word, std::size_t helper_bits) {
  return BitVector(helper_bits, word);
}

DevicePufPort::DevicePufPort(const alupuf::PufDevice& device,
                             variation::Environment env,
                             support::Xoshiro256pp& rng)
    : device_(&device), env_(env), rng_(&rng) {
  if (device.raw_puf().response_bits() != 32) {
    throw std::invalid_argument(
        "DevicePufPort: protocol requires a 32-bit PUF (64-bit challenges)");
  }
}

void DevicePufPort::start() {
  fed_ = 0;
  cycle_ps_ = 0.0;
}

void DevicePufPort::feed(std::uint64_t challenge, double cycle_ps) {
  if (fed_ < challenges_.size()) {
    challenges_[fed_] = challenge;
  }
  ++fed_;
  cycle_ps_ = cycle_ps;
}

std::uint32_t DevicePufPort::finish(std::vector<std::uint32_t>& helper_words) {
  if (fed_ != challenges_.size()) {
    throw cpu::MachineError(
        "PUF block: pend after " + std::to_string(fed_) +
        " PUF-mode adds (hardware expects exactly 8)");
  }
  const alupuf::ClockConstraint clock{cycle_ps_, setup_ps_};
  const auto out = device_->query_words(challenges_, env_, *rng_, &clock,
                                        scratch_);
  helper_words.assign(out.helpers.begin(), out.helpers.end());
  return static_cast<std::uint32_t>(out.z);
}

swat::PufQuery device_query(const alupuf::PufDevice& device,
                            const variation::Environment& env,
                            support::Xoshiro256pp& rng,
                            std::vector<std::uint32_t>& transcript) {
  return [&device, env, &rng, &transcript,
          scratch = alupuf::AluPufBatchScratch{}](
             const std::array<std::uint64_t, 8>& challenges) mutable
             -> std::optional<std::uint32_t> {
    const auto out = device.query_words(challenges, env, rng, nullptr, scratch);
    transcript.insert(transcript.end(), out.helpers.begin(), out.helpers.end());
    return static_cast<std::uint32_t>(out.z);
  };
}

swat::PufQuery emulator_query(const alupuf::PufEmulator& emulator,
                              const std::vector<std::uint32_t>& transcript,
                              std::size_t& cursor,
                              double* total_weighted_ps) {
  return [&emulator, &transcript, &cursor, total_weighted_ps,
          state = timingsim::BitSliceState{}](
             const std::array<std::uint64_t, 8>& challenges) mutable
             -> std::optional<std::uint32_t> {
    if (cursor + 8 > transcript.size()) return std::nullopt;
    alupuf::PufEmulator::Words helpers;
    std::copy_n(transcript.begin() + static_cast<std::ptrdiff_t>(cursor), 8,
                helpers.begin());
    cursor += 8;
    const auto call = emulator.emulate_words(challenges, helpers, state);
    if (total_weighted_ps != nullptr) {
      *total_weighted_ps += call.stats.weighted_ps;
    }
    if (!call.z) return std::nullopt;
    return static_cast<std::uint32_t>(*call.z);
  };
}

}  // namespace pufatt::core

#include "core/protocol.hpp"

#include <stdexcept>

#include "core/puf_adapter.hpp"
#include "cpu/assembler.hpp"
#include "swat/program.hpp"

namespace pufatt::core {

std::uint32_t seed_from_nonce(std::uint64_t nonce) {
  auto seed = static_cast<std::uint32_t>(nonce ^ (nonce >> 32));
  return seed == 0 ? 1u : seed;
}

const char* to_string(VerifyStatus status) {
  switch (status) {
    case VerifyStatus::kAccepted: return "accepted";
    case VerifyStatus::kTimeExceeded: return "time exceeded";
    case VerifyStatus::kChecksumMismatch: return "checksum mismatch";
    case VerifyStatus::kPufReconstructionFailed: return "PUF reconstruction failed";
  }
  return "?";
}

namespace {

std::shared_ptr<const alupuf::AluPufEmulator> model_of(
    const std::shared_ptr<const DeviceSnapshot>& device) {
  if (!device) throw std::invalid_argument("Verifier: null device snapshot");
  // Aliases the snapshot: the emulator keeps it alive, never copies it.
  return {device, &device->emulator()};
}

}  // namespace

Verifier::Verifier(std::shared_ptr<const DeviceSnapshot> device,
                   const ecc::BinaryCode& code, const ChannelParams& channel,
                   double slack, double max_avg_weighted_ps)
    : device_(std::move(device)),
      emulator_(model_of(device_), code),
      channel_(channel),
      slack_(slack),
      max_avg_weighted_ps_(max_avg_weighted_ps) {
  if (slack < 0.0) throw std::invalid_argument("Verifier: negative slack");
  if (!(max_avg_weighted_ps >= 0.0)) {
    throw std::invalid_argument("Verifier: bad weighted-distance budget");
  }
}

AttestationRequest Verifier::make_request(support::Xoshiro256pp& rng) const {
  return AttestationRequest{rng.next()};
}

double Verifier::deadline_us(const AttestationResponse& response) const {
  const double compute_us = static_cast<double>(device_->honest_cycles) /
                            device_->profile.base_clock_mhz;
  return compute_us * (1.0 + slack_) +
         channel_.round_trip_us(sizeof(std::uint64_t), response.wire_bytes());
}

VerifyResult Verifier::verify(const AttestationRequest& request,
                              const AttestationResponse& response,
                              double elapsed_us) const {
  VerifyResult result;
  result.elapsed_us = elapsed_us;
  result.deadline_us = deadline_us(response);

  // Negated so that a NaN elapsed time fails closed.
  if (!(0.0 <= elapsed_us && elapsed_us <= result.deadline_us)) {
    result.status = VerifyStatus::kTimeExceeded;
    return result;
  }

  // Recompute r with PUF.Emulate(), consuming the helper transcript.
  std::size_t cursor = 0;
  double total_weighted_ps = 0.0;
  const auto expected = swat::compute_checksum(
      device_->enrolled_image, seed_from_nonce(request.nonce),
      device_->profile.swat,
      emulator_query(emulator_, response.helper_words, cursor,
                     &total_weighted_ps));
  if (!expected.ok) {
    result.status = VerifyStatus::kPufReconstructionFailed;
    return result;
  }
  // Whole-transcript response-authenticity budget: the summed weighted
  // reconstruction distance must stay within the honest noise envelope.
  if (expected.puf_calls > 0 &&
      total_weighted_ps >
          max_avg_weighted_ps_ * static_cast<double>(expected.puf_calls)) {
    result.status = VerifyStatus::kPufReconstructionFailed;
    return result;
  }
  if (cursor != response.helper_words.size()) {
    // Trailing garbage in the transcript: treat as malformed.
    result.status = VerifyStatus::kPufReconstructionFailed;
    return result;
  }
  result.status = expected.state == response.checksum
                      ? VerifyStatus::kAccepted
                      : VerifyStatus::kChecksumMismatch;
  return result;
}

namespace {

/// Sizes the redirect-attack program: instruction count is independent of
/// the field values (all fit 16-bit immediates), so two passes suffice.
swat::RedirectAttack size_attack(const swat::SwatParams& params,
                                 const swat::SwatLayout& layout,
                                 std::uint32_t copy_addr) {
  swat::RedirectAttack attack;
  attack.protected_words = 1;
  attack.copy_addr = copy_addr;
  const auto probe =
      cpu::assemble(swat::generate_swat_source(params, layout, attack)).words;
  attack.protected_words = static_cast<std::uint32_t>(probe.size());
  const auto sized =
      cpu::assemble(swat::generate_swat_source(params, layout, attack)).words;
  if (sized.size() != probe.size()) {
    throw std::logic_error("redirect attack program size not stable");
  }
  return attack;
}

}  // namespace

CpuProver::CpuProver(const alupuf::PufDevice& device,
                     const EnrollmentRecord& record, Variant variant,
                     std::uint64_t rng_seed, std::optional<double> clock_mhz)
    : device_(&device),
      record_(record),
      variant_(variant),
      rng_(rng_seed),
      clock_mhz_(clock_mhz.value_or(record.profile.base_clock_mhz)) {
  const auto& profile = record_.profile;
  const std::size_t helper_capacity =
      static_cast<std::size_t>(profile.swat.rounds / profile.swat.puf_interval) * 8;
  const std::uint32_t copy_addr = static_cast<std::uint32_t>(
      profile.layout.helper_addr + helper_capacity + 64);

  // Base memory: the enrolled image in the attested region, zeros above.
  std::size_t mem_size = copy_addr + profile.swat.attest_words + 256;
  memory_.assign(mem_size, 0);
  for (std::size_t i = 0; i < record_.enrolled_image.size(); ++i) {
    memory_[i] = record_.enrolled_image[i];
  }

  if (variant_ == Variant::kRedirectMalware) {
    // The adversary replaces the program region with its own code (the
    // "malware"), keeps a pristine copy of the words it destroyed, and
    // redirects checksum reads into that copy.
    const auto attack = size_attack(profile.swat, profile.layout, copy_addr);
    const auto words =
        cpu::assemble(swat::generate_swat_source(profile.swat, profile.layout,
                                                 attack))
            .words;
    for (std::size_t i = 0; i < attack.protected_words; ++i) {
      memory_[copy_addr + i] = record_.enrolled_image[i];
    }
    for (std::size_t i = 0; i < words.size(); ++i) memory_[i] = words[i];
  }
}

CpuProver::Outcome CpuProver::respond(const AttestationRequest& request) {
  const auto& profile = record_.profile;
  cpu::Machine machine(memory_.size());
  machine.load(memory_, 0);
  machine.set_clock_mhz(clock_mhz_);
  machine.set_mem(profile.layout.seed_addr, seed_from_nonce(request.nonce));

  DevicePufPort port(*device_, variation::Environment::nominal(), rng_);
  machine.attach_puf(&port);

  const auto run = machine.run(10'000'000'000ULL);
  if (!run.halted) throw std::runtime_error("prover program did not halt");

  Outcome outcome;
  outcome.cycles = run.cycles;
  outcome.compute_us = machine.wall_time_us(run.cycles);
  for (unsigned i = 0; i < 8; ++i) {
    outcome.response.checksum[i] = machine.mem(profile.layout.result_addr + i);
  }
  const std::uint32_t helper_end = machine.mem(profile.layout.helper_ptr_addr);
  for (std::uint32_t a = profile.layout.helper_addr; a < helper_end; ++a) {
    outcome.response.helper_words.push_back(machine.mem(a));
  }
  return outcome;
}

ProxyOutcome proxy_attack(const alupuf::PufDevice& victim,
                          const EnrollmentRecord& record,
                          const AttestationRequest& request,
                          const ProxyAttackParams& params,
                          support::Xoshiro256pp& rng) {
  // The accomplice computes the checksum natively (it is a fast machine and
  // knows the enrolled image), but every PUF call is a round trip to the
  // victim: 8 challenges out (64 B), z + helper words back (36 B).
  ProxyOutcome outcome;
  std::vector<std::uint32_t> transcript;
  const auto query = device_query(victim, variation::Environment::nominal(),
                                  rng, transcript);
  const auto result =
      swat::compute_checksum(record.enrolled_image,
                             seed_from_nonce(request.nonce),
                             record.profile.swat, query);
  outcome.response.checksum = result.state;
  outcome.response.helper_words = std::move(transcript);
  outcome.oracle_calls = result.puf_calls;

  const Channel oracle(params.oracle_channel);
  const double compute_us =
      static_cast<double>(record.honest_cycles) /
      (record.profile.base_clock_mhz * params.accomplice_speedup);
  outcome.elapsed_us =
      compute_us + static_cast<double>(result.puf_calls) *
                       oracle.round_trip_us(64, 36);
  return outcome;
}

}  // namespace pufatt::core

// ALU-PUF-backed variants: the raw response-bit interface (invasive
// access) and the full obfuscated pipeline with its attestation replay
// surface.  All CRP harvesting rides AluPuf::eval_batch /
// PufDevice::query_batch so the timing kernel is the bit-sliced engine at
// fleet budgets.
#include <array>
#include <stdexcept>

#include "adversary/variant.hpp"
#include "alupuf/pipeline.hpp"
#include "ecc/reed_muller.hpp"
#include "mlattack/dataset.hpp"

namespace pufatt::adversary {

using support::BitVector;
using support::Xoshiro256pp;

namespace {

unsigned rm_order_for_width(std::size_t width) {
  unsigned m = 0;
  while ((std::size_t{1} << m) < width) ++m;
  if ((std::size_t{1} << m) != width || m < 2) {
    throw std::invalid_argument(
        "adversary: ALU variant width must be a power of two >= 4 (RM(1,m) "
        "helper code)");
  }
  return m;
}

class AluRawBitVariant final : public PufVariant {
 public:
  AluRawBitVariant(const AluVariantParams& params, std::uint64_t chip_seed)
      : bit_(params.bit),
        puf_(
            [&] {
              alupuf::AluPufConfig config;
              config.width = params.width;
              return config;
            }(),
            chip_seed) {
    if (bit_ >= puf_.response_bits()) {
      throw std::invalid_argument("AluRawBitVariant: bit out of range");
    }
  }

  std::string name() const override {
    return "alu-raw-b" + std::to_string(bit_);
  }
  std::size_t challenge_bits() const override { return puf_.challenge_bits(); }

  std::vector<double> features(const BitVector& challenge) const override {
    return mlattack::alu_features(challenge);
  }

  bool query(const BitVector& challenge, Xoshiro256pp& rng) const override {
    std::uint8_t out = 0;
    query_batch(&challenge, 1, &out, rng);
    return out != 0;
  }

  void query_batch(const BitVector* challenges, std::size_t count,
                   std::uint8_t* out, Xoshiro256pp& rng) const override {
    const auto responses =
        puf_.eval_batch(challenges, count, variation::Environment::nominal(),
                        rng);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = responses[i].get(bit_) ? 1 : 0;
    }
  }

 private:
  std::size_t bit_;
  alupuf::AluPuf puf_;
};

class ObfuscatedAluVariant;

/// The real attestation loop around the obfuscated variant: forged
/// transcripts are judged by the verifier-side PufEmulator with its
/// distance budgets, exactly as an attestation session would.
class AluAttestationSurface final : public AttestationSurface {
 public:
  explicit AluAttestationSurface(const ObfuscatedAluVariant& owner)
      : owner_(&owner) {}

  std::size_t raw_challenge_bits() const override;
  std::size_t raw_response_bits() const override;
  std::vector<RawCrp> collect_raw(std::size_t count,
                                  Xoshiro256pp& rng) const override;
  bool replay_trial(const RawResponder& respond,
                    Xoshiro256pp& rng) const override;
  double leaked_model_acceptance(std::size_t rounds,
                                 Xoshiro256pp& rng) const override;

 private:
  const ObfuscatedAluVariant* owner_;
};

class ObfuscatedAluVariant final : public PufVariant {
 public:
  ObfuscatedAluVariant(const AluVariantParams& params, std::uint64_t chip_seed)
      : bit_(params.bit),
        code_(rm_order_for_width(params.width)),
        device_(
            [&] {
              alupuf::AluPufConfig config;
              config.width = params.width;
              return config;
            }(),
            chip_seed, code_),
        emulator_(params.width, device_.export_model(), code_),
        helper_(code_),
        obfuscation_(params.width,
                     alupuf::ObfuscationNetwork::Pairing::kHardened),
        surface_(*this) {
    if (bit_ >= device_.output_bits()) {
      throw std::invalid_argument("ObfuscatedAluVariant: bit out of range");
    }
  }

  std::string name() const override { return "alu-obf-b" + std::to_string(bit_); }
  std::size_t challenge_bits() const override { return 64; }

  std::vector<double> features(const BitVector& challenge) const override {
    return mlattack::word_features(challenge.to_u64());
  }

  bool query(const BitVector& challenge, Xoshiro256pp& rng) const override {
    std::uint8_t out = 0;
    query_batch(&challenge, 1, &out, rng);
    return out != 0;
  }

  void query_batch(const BitVector* challenges, std::size_t count,
                   std::uint8_t* out, Xoshiro256pp& rng) const override {
    std::vector<std::uint64_t> xs(count);
    for (std::size_t i = 0; i < count; ++i) xs[i] = challenges[i].to_u64();
    const auto results = device_.query_batch(
        xs.data(), count, variation::Environment::nominal(), rng);
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = results[i].z.get(bit_) ? 1 : 0;
    }
  }

  const AttestationSurface* attestation_surface() const override {
    return &surface_;
  }

  // --- surface internals ----------------------------------------------------

  std::size_t raw_challenge_bits() const { return device_.raw_puf().challenge_bits(); }
  std::size_t raw_response_bits() const { return device_.raw_puf().response_bits(); }

  std::vector<RawCrp> collect_raw(std::size_t count, Xoshiro256pp& rng) const {
    std::vector<BitVector> challenges;
    challenges.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      challenges.push_back(BitVector::random(raw_challenge_bits(), rng));
    }
    const auto responses = device_.raw_puf().eval_batch(
        challenges.data(), count, variation::Environment::nominal(), rng);
    std::vector<RawCrp> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      out.push_back(RawCrp{std::move(challenges[i]), responses[i]});
    }
    return out;
  }

  bool replay_trial(const RawResponder& respond, Xoshiro256pp& rng) const {
    constexpr std::size_t kPer = alupuf::ObfuscationNetwork::kResponsesPerOutput;
    const std::uint64_t x = rng.next();  // the verifier's fresh challenge
    const auto raw = alupuf::ChallengeExpander::expand(x, raw_response_bits());
    std::array<BitVector, kPer> predicted;
    std::vector<BitVector> helpers;
    helpers.reserve(kPer);
    for (std::size_t r = 0; r < kPer; ++r) {
      predicted[r] = respond(raw[r]);
      if (predicted[r].size() != raw_response_bits()) {
        throw std::invalid_argument("replay_trial: responder width mismatch");
      }
      helpers.push_back(helper_.generate(predicted[r]));
    }
    const BitVector z = obfuscation_.obfuscate(predicted);
    const auto verdict = emulator_.emulate(x, helpers);
    return verdict.has_value() && *verdict == z;
  }

  double leaked_model_acceptance(std::size_t rounds, Xoshiro256pp& rng) const {
    // The attacker holds the enrollment model H itself: its "measurements"
    // are the verifier's own error-free references (Gao'17).
    const RawResponder oracle = [this](const BitVector& challenge) {
      return emulator_.raw_emulator().eval(challenge);
    };
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < rounds; ++i) {
      if (replay_trial(oracle, rng)) ++accepted;
    }
    return rounds == 0 ? 0.0 : static_cast<double>(accepted) / rounds;
  }

 private:
  std::size_t bit_;
  ecc::ReedMuller1 code_;
  alupuf::PufDevice device_;
  alupuf::PufEmulator emulator_;
  ecc::SyndromeHelper helper_;
  alupuf::ObfuscationNetwork obfuscation_;
  AluAttestationSurface surface_;
};

std::size_t AluAttestationSurface::raw_challenge_bits() const {
  return owner_->raw_challenge_bits();
}
std::size_t AluAttestationSurface::raw_response_bits() const {
  return owner_->raw_response_bits();
}
std::vector<RawCrp> AluAttestationSurface::collect_raw(
    std::size_t count, Xoshiro256pp& rng) const {
  return owner_->collect_raw(count, rng);
}
bool AluAttestationSurface::replay_trial(const RawResponder& respond,
                                         Xoshiro256pp& rng) const {
  return owner_->replay_trial(respond, rng);
}
double AluAttestationSurface::leaked_model_acceptance(std::size_t rounds,
                                                      Xoshiro256pp& rng) const {
  return owner_->leaked_model_acceptance(rounds, rng);
}

}  // namespace

std::unique_ptr<PufVariant> make_alu_raw_variant(const AluVariantParams& params,
                                                 std::uint64_t chip_seed) {
  return std::make_unique<AluRawBitVariant>(params, chip_seed);
}

std::unique_ptr<PufVariant> make_obfuscated_alu_variant(
    const AluVariantParams& params, std::uint64_t chip_seed) {
  return std::make_unique<ObfuscatedAluVariant>(params, chip_seed);
}

}  // namespace pufatt::adversary

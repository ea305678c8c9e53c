// Verdict parity: core::Verifier::verify, which runs every PUF call through
// the word pipeline (PufEmulator::emulate_words), against a test-local
// reference verifier built from scalar AluPufEmulator::eval_soft, BitVector
// helper-data reconstruction and the bit-by-bit obfuscation network, over
// seeded honest and adversarial transcripts.  Statuses must agree, and so
// must the summed reliability-weighted reconstruction distance, to the bit.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/enrollment.hpp"
#include "core/protocol.hpp"
#include "core/puf_adapter.hpp"
#include "ecc/reed_muller.hpp"
#include "reference_pipeline.hpp"

namespace pufatt::core {
namespace {

using support::BitVector;
using support::Xoshiro256pp;

/// Verifier's default whole-transcript budget: average weighted
/// reconstruction distance per PUF call (ps).
constexpr double kMaxAvgWeightedPs = 36.0;

struct Transcript {
  const char* kind = "";
  std::size_t device = 0;
  AttestationRequest request;
  AttestationResponse response;
  double elapsed_us = 0.0;
};

struct Outcome {
  VerifyStatus status = VerifyStatus::kAccepted;
  double total_weighted_ps = 0.0;
};

/// The reference PUF.Emulate(): one scalar soft emulation per challenge,
/// BitVector reconstruction, per-call budgets, bitwise obfuscation.
swat::PufQuery reference_query(const alupuf::AluPufEmulator& emulator,
                               const alupuf::PufEmulator& budgets,
                               const ecc::BinaryCode& code,
                               const std::vector<std::uint32_t>& transcript,
                               std::size_t& cursor, double& total_weighted_ps) {
  return [&](const std::array<std::uint64_t, 8>& challenges)
             -> std::optional<std::uint32_t> {
    if (cursor + 8 > transcript.size()) return std::nullopt;
    std::array<BitVector, 8> responses;
    std::size_t distance = 0;
    double weighted = 0.0;
    for (std::size_t r = 0; r < 8; ++r) {
      const auto llr = emulator.eval_soft(challenge_from_u64(challenges[r]));
      const auto helper = helper_from_word(transcript[cursor + r],
                                           code.n() - code.k());
      responses[r] = testref::reference_reproduce_soft(code, llr, helper);
      for (std::size_t i = 0; i < llr.size(); ++i) {
        if (responses[r].get(i) != (llr[i] < 0.0)) {
          ++distance;
          weighted += std::abs(llr[i]);
        }
      }
    }
    cursor += 8;
    total_weighted_ps += weighted;
    if (distance > budgets.max_call_distance() ||
        weighted > budgets.max_weighted_distance()) {
      return std::nullopt;
    }
    return static_cast<std::uint32_t>(
        testref::reference_obfuscate(
            responses, alupuf::ObfuscationNetwork::Pairing::kHardened)
            .to_u64());
  };
}

/// Verifier::verify restated over reference_query.  The weighted total is
/// accumulated even past the deadline, so it can be compared on every
/// transcript.
Outcome reference_verify(const EnrollmentRecord& record,
                         const ecc::BinaryCode& code, const Verifier& verifier,
                         const Transcript& t) {
  const auto& puf = record.profile.puf_config;
  const alupuf::AluPufEmulator emulator(puf.width, record.model, puf.layout);
  const alupuf::PufEmulator budgets(puf.width, record.model, code, puf.layout);
  Outcome out;
  std::size_t cursor = 0;
  const auto expected = swat::compute_checksum(
      record.enrolled_image, seed_from_nonce(t.request.nonce),
      record.profile.swat,
      reference_query(emulator, budgets, code, t.response.helper_words, cursor,
                      out.total_weighted_ps));
  if (t.elapsed_us > verifier.deadline_us(t.response)) {
    out.status = VerifyStatus::kTimeExceeded;
  } else if (!expected.ok ||
             (expected.puf_calls > 0 &&
              out.total_weighted_ps >
                  kMaxAvgWeightedPs * static_cast<double>(expected.puf_calls)) ||
             cursor != t.response.helper_words.size()) {
    out.status = VerifyStatus::kPufReconstructionFailed;
  } else {
    out.status = expected.state == t.response.checksum
                     ? VerifyStatus::kAccepted
                     : VerifyStatus::kChecksumMismatch;
  }
  return out;
}

/// The production path's weighted total: Verifier::verify's own
/// emulator_query recomputation, on an emulator built like the verifier's.
double production_weighted_ps(const EnrollmentRecord& record,
                              const ecc::BinaryCode& code,
                              const Transcript& t) {
  const auto& puf = record.profile.puf_config;
  const alupuf::PufEmulator emulator(puf.width, record.model, code, puf.layout);
  std::size_t cursor = 0;
  double total = 0.0;
  swat::compute_checksum(
      record.enrolled_image, seed_from_nonce(t.request.nonce),
      record.profile.swat,
      emulator_query(emulator, t.response.helper_words, cursor, &total));
  return total;
}

class VerifyParity : public ::testing::Test {
 protected:
  static constexpr std::size_t kDevices = 2;

  struct Bed {
    Bed() : code(5), profile(make_profile()) {
      std::vector<std::uint32_t> payload(600);
      Xoshiro256pp rng(4040);
      for (auto& w : payload) w = static_cast<std::uint32_t>(rng.next());
      const auto image = make_enrolled_image(profile, payload);
      for (std::size_t d = 0; d < kDevices; ++d) {
        devices.push_back(std::make_unique<alupuf::PufDevice>(
            profile.puf_config, 5150 + d, code));
        records.push_back(enroll(*devices[d], profile, image));
        verifiers.push_back(std::make_unique<Verifier>(records[d], code));
      }
      record_transcripts();
    }

    static DeviceProfile make_profile() {
      auto profile = DeviceProfile::standard();
      profile.swat.rounds = 512;
      profile.swat.puf_interval = 64;
      profile.swat.attest_words = 1024;
      profile.layout = swat::SwatLayout::standard(profile.swat);
      return profile;
    }

    /// Per device: two honest transcripts, naive malware (tampered image,
    /// honest program), redirect malware at 1.0x and 1.35x the base clock,
    /// another device's die under this record, and an honest transcript
    /// replayed under a fresh nonce (the Gao'17 replay setting).
    void record_transcripts() {
      using V = CpuProver::Variant;
      Xoshiro256pp rng(6060);
      const Channel channel;
      for (std::size_t d = 0; d < kDevices; ++d) {
        const auto run = [&](const char* kind, std::size_t die,
                             const EnrollmentRecord& prover_record, V variant,
                             double clock_scale) {
          CpuProver prover(*devices[die], prover_record, variant, rng.next(),
                           records[d].profile.base_clock_mhz * clock_scale);
          Transcript t;
          t.kind = kind;
          t.device = d;
          t.request = AttestationRequest{rng.next()};
          auto outcome = prover.respond(t.request);
          t.elapsed_us = outcome.compute_us +
                         channel.round_trip_us(8, outcome.response.wire_bytes());
          t.response = std::move(outcome.response);
          transcripts.push_back(t);
        };
        auto tampered = records[d];
        const std::size_t end = tampered.enrolled_image.size() - 100;
        for (std::size_t w = end - 60; w < end; ++w) {
          tampered.enrolled_image[w] ^= 0x5A5A5A5Au;
        }
        run("honest", d, records[d], V::kHonest, 1.0);
        run("honest", d, records[d], V::kHonest, 1.0);
        run("naive_malware", d, tampered, V::kHonest, 1.0);
        run("redirect_1.0x", d, records[d], V::kRedirectMalware, 1.0);
        run("redirect_1.35x", d, records[d], V::kRedirectMalware, 1.35);
        run("wrong_die", (d + 1) % kDevices, records[d], V::kHonest, 1.0);
        run("replay", d, records[d], V::kHonest, 1.0);
        transcripts.back().request = AttestationRequest{rng.next()};
      }
    }

    ecc::ReedMuller1 code;
    DeviceProfile profile;
    std::vector<std::unique_ptr<alupuf::PufDevice>> devices;
    std::vector<EnrollmentRecord> records;
    std::vector<std::unique_ptr<Verifier>> verifiers;
    std::vector<Transcript> transcripts;
  };

  static Bed& bed() {
    static Bed instance;  // prover runs are the slow part
    return instance;
  }
};

TEST_F(VerifyParity, WordPipelineMatchesScalarReference) {
  std::set<VerifyStatus> seen;
  for (const auto& t : bed().transcripts) {
    const auto& record = bed().records[t.device];
    const auto& verifier = *bed().verifiers[t.device];
    const auto reference = reference_verify(record, bed().code, verifier, t);
    const auto status =
        verifier.verify(t.request, t.response, t.elapsed_us).status;
    EXPECT_EQ(status, reference.status)
        << t.kind << " on device " << t.device << ": " << to_string(status)
        << " vs reference " << to_string(reference.status);
    EXPECT_EQ(production_weighted_ps(record, bed().code, t),
              reference.total_weighted_ps)
        << t.kind << " on device " << t.device;
    seen.insert(status);
  }
  // The corpus reaches every verdict, so every branch of verify is compared.
  EXPECT_EQ(seen.size(), 4u);
}

TEST_F(VerifyParity, TranscriptKindsGetTheirVerdicts) {
  for (const auto& t : bed().transcripts) {
    const auto status = bed()
                            .verifiers[t.device]
                            ->verify(t.request, t.response, t.elapsed_us)
                            .status;
    const std::string kind = t.kind;
    if (kind == "honest") {
      EXPECT_EQ(status, VerifyStatus::kAccepted) << kind;
    } else if (kind == "naive_malware") {
      EXPECT_EQ(status, VerifyStatus::kChecksumMismatch) << kind;
    } else if (kind == "redirect_1.0x") {
      EXPECT_EQ(status, VerifyStatus::kTimeExceeded) << kind;
    } else {
      EXPECT_NE(status, VerifyStatus::kAccepted) << kind;
    }
  }
}

}  // namespace
}  // namespace pufatt::core

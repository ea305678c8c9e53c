// Adversarial edge cases on the protocol surface: tampered transcripts,
// malformed messages and byte streams, verifier knob behaviour, determinism.
#include <gtest/gtest.h>

#include <limits>

#include "core/enrollment.hpp"
#include "core/protocol.hpp"
#include "core/puf_adapter.hpp"
#include "core/serialize.hpp"
#include "ecc/reed_muller.hpp"

namespace pufatt::core {
namespace {

using support::Xoshiro256pp;

struct EdgeBed {
  EdgeBed()
      : code(5),
        profile(make_profile()),
        device(profile.puf_config, 888, code),
        record(enroll(device, profile,
                      make_enrolled_image(
                          profile, std::vector<std::uint32_t>(400, 0xEE)))),
        verifier(record, code) {}

  static DeviceProfile make_profile() {
    auto p = DeviceProfile::standard();
    p.swat.rounds = 512;
    p.swat.attest_words = 1024;
    p.layout = swat::SwatLayout::standard(p.swat);
    return p;
  }

  double elapsed(const CpuProver::Outcome& outcome) const {
    const Channel channel;
    return outcome.compute_us +
           channel.round_trip_us(8, outcome.response.wire_bytes());
  }

  ecc::ReedMuller1 code;
  DeviceProfile profile;
  alupuf::PufDevice device;
  EnrollmentRecord record;
  Verifier verifier;
};

class ProtocolEdge : public ::testing::Test {
 protected:
  static EdgeBed& bed() {
    static EdgeBed instance;
    return instance;
  }
  Xoshiro256pp rng_{77};
};

TEST_F(ProtocolEdge, VerificationIsDeterministic) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 1);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto r1 =
      bed().verifier.verify(request, outcome.response, bed().elapsed(outcome));
  const auto r2 =
      bed().verifier.verify(request, outcome.response, bed().elapsed(outcome));
  EXPECT_EQ(r1.status, r2.status);
  EXPECT_DOUBLE_EQ(r1.deadline_us, r2.deadline_us);
}

TEST_F(ProtocolEdge, SingleHelperBitFlipRejects) {
  // The helper transcript is authenticated implicitly: flipping any bit
  // changes the reconstructed response and hence z and the checksum (or
  // trips the distance budgets).
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 2);
  const auto request = bed().verifier.make_request(rng_);
  auto outcome = prover.respond(request);
  Xoshiro256pp tamper_rng(5);
  int rejects = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    auto tampered = outcome.response;
    const auto word = tamper_rng.uniform_u64(tampered.helper_words.size());
    tampered.helper_words[word] ^=
        1u << tamper_rng.uniform_u64(26);  // 26-bit syndromes
    const auto result =
        bed().verifier.verify(request, tampered, bed().elapsed(outcome));
    if (!result.accepted()) ++rejects;
  }
  EXPECT_EQ(rejects, trials);
}

TEST_F(ProtocolEdge, ExtraHelperWordsRejected) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 3);
  const auto request = bed().verifier.make_request(rng_);
  auto outcome = prover.respond(request);
  outcome.response.helper_words.push_back(0xDEAD);
  const auto result = bed().verifier.verify(request, outcome.response,
                                            bed().elapsed(outcome));
  EXPECT_EQ(result.status, VerifyStatus::kPufReconstructionFailed);
}

TEST_F(ProtocolEdge, EmptyTranscriptRejected) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 4);
  const auto request = bed().verifier.make_request(rng_);
  auto outcome = prover.respond(request);
  outcome.response.helper_words.clear();
  const auto result = bed().verifier.verify(request, outcome.response,
                                            bed().elapsed(outcome));
  EXPECT_EQ(result.status, VerifyStatus::kPufReconstructionFailed);
}

TEST_F(ProtocolEdge, ZeroElapsedStillNeedsCorrectChecksum) {
  // Being fast is not enough.
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 5);
  const auto request = bed().verifier.make_request(rng_);
  auto outcome = prover.respond(request);
  outcome.response.checksum[0] ^= 0x100;
  const auto result = bed().verifier.verify(request, outcome.response, 0.0);
  EXPECT_EQ(result.status, VerifyStatus::kChecksumMismatch);
}

TEST_F(ProtocolEdge, NonFiniteOrNegativeElapsedIsTimeExceeded) {
  // The time bound fails closed: an elapsed time outside [0, deadline] is
  // never accepted, even on an honest transcript.
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 9);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  ASSERT_TRUE(bed()
                  .verifier.verify(request, outcome.response,
                                   bed().elapsed(outcome))
                  .accepted());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double elapsed :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, -1.0, -1e9}) {
    const auto result =
        bed().verifier.verify(request, outcome.response, elapsed);
    EXPECT_EQ(result.status, VerifyStatus::kTimeExceeded)
        << "elapsed " << elapsed;
  }
}

TEST_F(ProtocolEdge, DeadlineScalesWithTranscriptSize) {
  // The channel budget accounts for the response payload the prover must
  // push through the constrained link.
  AttestationResponse small, large;
  small.helper_words.assign(8, 0);
  large.helper_words.assign(800, 0);
  EXPECT_GT(bed().verifier.deadline_us(large),
            bed().verifier.deadline_us(small));
}

TEST_F(ProtocolEdge, TightWeightedBudgetRejectsHonest) {
  // Sanity on the knob: an absurd budget flags even the honest device —
  // proving the statistic is actually consulted.
  const Verifier strict(bed().record, bed().code, ChannelParams{}, 0.03,
                        0.001);
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 6);
  const auto request = strict.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto result =
      strict.verify(request, outcome.response, bed().elapsed(outcome));
  EXPECT_EQ(result.status, VerifyStatus::kPufReconstructionFailed);
  // A budget no transcript can exceed (NaN) or meet (negative) is refused.
  for (const double budget : {std::numeric_limits<double>::quiet_NaN(), -1.0}) {
    EXPECT_THROW(
        Verifier(bed().record, bed().code, ChannelParams{}, 0.03, budget),
        std::invalid_argument);
  }
}

TEST_F(ProtocolEdge, RequestNoncesAreFresh) {
  Xoshiro256pp rng(123);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(bed().verifier.make_request(rng).nonce).second);
  }
}

TEST_F(ProtocolEdge, ProverRespondsConsistentlyToSameNonce) {
  // Same nonce, same device: the checksum matches across runs (the PUF
  // noise is absorbed by the error correction; helper words may differ).
  CpuProver a(bed().device, bed().record, CpuProver::Variant::kHonest, 7);
  CpuProver b(bed().device, bed().record, CpuProver::Variant::kHonest, 8);
  const AttestationRequest request{424242};
  const auto ra = a.respond(request);
  const auto rb = b.respond(request);
  // Both must verify.  Note the checksums themselves are allowed to
  // differ across runs: a reverse fuzzy extractor obfuscates the *noisy*
  // measurement y' (whose few flipped bits differ per run) and the
  // verifier reconstructs that exact y' from the helper data — so r is
  // per-run while verification stays exact.
  const auto va =
      bed().verifier.verify(request, ra.response, bed().elapsed(ra));
  const auto vb =
      bed().verifier.verify(request, rb.response, bed().elapsed(rb));
  EXPECT_TRUE(va.accepted());
  EXPECT_TRUE(vb.accepted());
}

TEST_F(ProtocolEdge, NegativeSlackRejected) {
  EXPECT_THROW(Verifier(bed().record, bed().code, ChannelParams{}, -0.1),
               std::invalid_argument);
}

TEST_F(ProtocolEdge, ResponseWireFrameRoundTrips) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 20);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto frame = serialize_response(outcome.response);
  const auto parsed = deserialize_response(frame);
  EXPECT_EQ(parsed.checksum, outcome.response.checksum);
  EXPECT_EQ(parsed.helper_words, outcome.response.helper_words);
  const auto req_frame = serialize_request(request);
  EXPECT_EQ(deserialize_request(req_frame).nonce, request.nonce);
}

TEST_F(ProtocolEdge, TruncatedResponseFrameRejected) {
  AttestationResponse response;
  response.helper_words.assign(64, 0x1234);
  const auto frame = serialize_response(response);
  for (const std::size_t cut : {0uL, 3uL, 7uL, 39uL, frame.size() - 1}) {
    const std::vector<std::uint8_t> truncated(frame.begin(),
                                              frame.begin() + cut);
    EXPECT_THROW(deserialize_response(truncated), SerializationError)
        << "cut at " << cut;
  }
}

TEST_F(ProtocolEdge, OversizedAndTrailingResponseFramesRejected) {
  AttestationResponse response;
  response.helper_words.assign(16, 7);
  auto frame = serialize_response(response);
  frame.push_back(0);  // trailing garbage
  EXPECT_THROW(deserialize_response(frame), SerializationError);

  // A helper count beyond the wire limit must be rejected *before* any
  // allocation is attempted.
  auto huge = serialize_response(response);
  const std::uint32_t absurd = 0x7FFFFFFFu;
  for (int i = 0; i < 4; ++i) {
    huge[4 + i] = static_cast<std::uint8_t>(absurd >> (8 * i));
  }
  EXPECT_THROW(deserialize_response(huge), SerializationError);
}

TEST_F(ProtocolEdge, FramesBeyondWireByteLimitRejected) {
  // kMaxWireFrameBytes is sized so the largest *honest* frame — a response
  // carrying exactly kMaxWireHelperWords helper words — still fits...
  AttestationResponse biggest;
  biggest.helper_words.assign(kMaxWireHelperWords, 0xABCD);
  const auto frame = serialize_response(biggest);
  ASSERT_EQ(frame.size(), kMaxWireFrameBytes);
  EXPECT_EQ(deserialize_response(frame).helper_words.size(),
            kMaxWireHelperWords);

  // ...while any buffer past the bound is rejected up front, whatever its
  // contents.  Stream decoders share this constant so a declared length can
  // never size an allocation beyond it.
  std::vector<std::uint8_t> oversized(kMaxWireFrameBytes + 1, 0);
  EXPECT_THROW(deserialize_response(oversized), SerializationError);
  EXPECT_THROW(deserialize_request(oversized), SerializationError);
}

TEST_F(ProtocolEdge, WrongHelperWordCountRejected) {
  // Helper transcripts carry 8 words per PUF call; a count of, say, 12
  // cannot come from an honest prover and is rejected at the frame layer.
  AttestationResponse response;
  response.helper_words.assign(12, 1);
  const auto frame = serialize_response(response);
  EXPECT_THROW(deserialize_response(frame), SerializationError);
}

TEST_F(ProtocolEdge, CorruptedResponseFrameFailsCrc) {
  AttestationResponse response;
  response.helper_words.assign(32, 0xCAFE);
  const auto frame = serialize_response(response);
  Xoshiro256pp flip_rng(31);
  for (int t = 0; t < 50; ++t) {
    auto corrupted = frame;
    const auto bit = flip_rng.uniform_u64(corrupted.size() * 8);
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(deserialize_response(corrupted), SerializationError);
  }
}

TEST_F(ProtocolEdge, MutatedByteStreamsNeverCrashTheVerifier) {
  // Fuzz-ish sweep: mutate a valid frame arbitrarily; the deserializer
  // must either throw SerializationError or produce a response that
  // `verify` maps to a clean rejection — never UB, never a crash.
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 21);
  const auto request = bed().verifier.make_request(rng_);
  const auto outcome = prover.respond(request);
  const auto frame = serialize_response(outcome.response);
  Xoshiro256pp fuzz_rng(32);
  int parsed_frames = 0;
  for (int t = 0; t < 300; ++t) {
    auto mutated = frame;
    const auto mutations = 1 + fuzz_rng.uniform_u64(8);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      mutated[fuzz_rng.uniform_u64(mutated.size())] =
          static_cast<std::uint8_t>(fuzz_rng.next());
    }
    if (fuzz_rng.bernoulli(0.3)) {
      mutated.resize(fuzz_rng.uniform_u64(mutated.size() + 1));
    }
    try {
      const auto parsed = deserialize_response(mutated);
      ++parsed_frames;
      const auto result =
          bed().verifier.verify(request, parsed, bed().elapsed(outcome));
      (void)result;  // any status is fine; surviving is the assertion
    } catch (const SerializationError&) {
      // expected for nearly all mutations
    }
  }
  // The CRC makes an accidental valid parse astronomically unlikely.
  EXPECT_EQ(parsed_frames, 0);
}

TEST_F(ProtocolEdge, PufPortRequiresEightFeeds) {
  // Hardware contract: pend after fewer than 8 PUF-mode adds is a fault.
  Xoshiro256pp rng(9);
  DevicePufPort port(bed().device, variation::Environment::nominal(), rng);
  port.start();
  port.feed(1, 1000.0);
  std::vector<std::uint32_t> helpers;
  EXPECT_THROW(port.finish(helpers), cpu::MachineError);
}

}  // namespace
}  // namespace pufatt::core

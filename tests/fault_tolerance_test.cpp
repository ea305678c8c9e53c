// Fault-injection and attestation-session tests: seeded determinism of the
// fault schedule, retry behaviour of honest and compromised provers over
// lossy links, fresh-nonce discipline, and degraded distributed audits.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "core/faulty_channel.hpp"
#include "core/serialize.hpp"
#include "core/session.hpp"
#include "ecc/reed_muller.hpp"

namespace pufatt::core {
namespace {

using support::Xoshiro256pp;

// --- FaultyChannel ----------------------------------------------------------

std::vector<std::uint8_t> test_payload(std::size_t n) {
  std::vector<std::uint8_t> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return payload;
}

TEST(FaultyChannel, SameSeedSameSchedule) {
  FaultParams faults;
  faults.loss_prob = 0.2;
  faults.bit_error_rate = 1e-3;
  faults.jitter_sigma = 0.4;
  FaultyChannel a({}, faults, 42);
  FaultyChannel b({}, faults, 42);
  for (int packet = 0; packet < 200; ++packet) {
    auto pa = test_payload(64);
    auto pb = test_payload(64);
    const auto da = a.transmit(pa);
    const auto db = b.transmit(pb);
    ASSERT_EQ(da.delivered, db.delivered) << "packet " << packet;
    ASSERT_EQ(da.bits_flipped, db.bits_flipped);
    ASSERT_DOUBLE_EQ(da.transfer_us, db.transfer_us);
    ASSERT_EQ(pa, pb) << "corruption must hit identical bits";
  }
  EXPECT_EQ(a.counters().packets_lost, b.counters().packets_lost);
  EXPECT_EQ(a.counters().bits_flipped, b.counters().bits_flipped);
  EXPECT_GT(a.counters().packets_lost, 0u);
  EXPECT_GT(a.counters().bits_flipped, 0u);
}

TEST(FaultyChannel, DifferentSeedDifferentSchedule) {
  FaultParams faults;
  faults.loss_prob = 0.3;
  FaultyChannel a({}, faults, 1);
  FaultyChannel b({}, faults, 2);
  std::vector<bool> da, db;
  for (int packet = 0; packet < 100; ++packet) {
    auto pa = test_payload(8);
    auto pb = test_payload(8);
    da.push_back(a.transmit(pa).delivered);
    db.push_back(b.transmit(pb).delivered);
  }
  EXPECT_NE(da, db);
}

TEST(FaultyChannel, ReportedFlipCountMatchesPayloadDamage) {
  FaultParams faults;
  faults.bit_error_rate = 0.01;
  FaultyChannel channel({}, faults, 7);
  const auto original = test_payload(256);
  std::uint64_t total_reported = 0, total_observed = 0;
  for (int packet = 0; packet < 50; ++packet) {
    auto frame = original;
    const auto delivery = channel.transmit(frame);
    ASSERT_TRUE(delivery.delivered);
    total_reported += delivery.bits_flipped;
    for (std::size_t i = 0; i < frame.size(); ++i) {
      total_observed += static_cast<std::uint64_t>(
          __builtin_popcount(frame[i] ^ original[i]));
    }
  }
  EXPECT_EQ(total_reported, total_observed);
  EXPECT_GT(total_reported, 0u);
  EXPECT_EQ(channel.counters().bits_flipped, total_observed);
}

TEST(FaultyChannel, PerfectParamsBehaveLikeAnalyticChannel) {
  const ChannelParams params{.bandwidth_bps = 250'000.0, .latency_us = 3'000.0};
  FaultyChannel faulty(params, {}, 99);
  const Channel exact(params);
  auto frame = test_payload(100);
  const auto delivery = faulty.transmit(frame, 100);
  EXPECT_TRUE(delivery.delivered);
  EXPECT_EQ(delivery.bits_flipped, 0u);
  EXPECT_DOUBLE_EQ(delivery.transfer_us, exact.transfer_us(100));
  EXPECT_EQ(frame, test_payload(100));
}

TEST(FaultyChannel, GilbertElliottOutageDropsEverything) {
  FaultParams faults;
  faults.burst = true;
  faults.p_good_to_bad = 1.0;  // enter the bad state on the first packet
  faults.p_bad_to_good = 0.0;  // and never leave
  faults.bad_loss_prob = 1.0;
  FaultyChannel channel({}, faults, 5);
  for (int packet = 0; packet < 20; ++packet) {
    auto frame = test_payload(16);
    EXPECT_FALSE(channel.transmit(frame).delivered);
  }
  EXPECT_TRUE(channel.in_bad_state());
  EXPECT_EQ(channel.counters().packets_lost, 20u);
  EXPECT_EQ(channel.counters().bad_state_packets, 20u);
}

TEST(FaultyChannel, RejectsBadParameters) {
  FaultParams faults;
  faults.loss_prob = 1.5;
  EXPECT_THROW(FaultyChannel({}, faults, 1), std::invalid_argument);
  faults.loss_prob = 0.0;
  faults.jitter_sigma = -0.1;
  EXPECT_THROW(FaultyChannel({}, faults, 1), std::invalid_argument);
}

// --- AttestationSession -----------------------------------------------------

struct SessionBed {
  SessionBed()
      : code(5),
        profile(make_profile()),
        device(profile.puf_config, 4242, code),
        record(enroll(device, profile,
                      make_enrolled_image(
                          profile, std::vector<std::uint32_t>(400, 0xAB)))),
        verifier(record, code) {}

  static DeviceProfile make_profile() {
    auto p = DeviceProfile::standard();
    p.swat.rounds = 512;
    p.swat.puf_interval = 64;
    p.swat.attest_words = 1024;
    p.layout = swat::SwatLayout::standard(p.swat);
    return p;
  }

  Responder responder_for(CpuProver& prover) const {
    return [&prover](const AttestationRequest& request) {
      auto outcome = prover.respond(request);
      return ProverReply{std::move(outcome.response), outcome.compute_us};
    };
  }

  ecc::ReedMuller1 code;
  DeviceProfile profile;
  alupuf::PufDevice device;
  EnrollmentRecord record;
  Verifier verifier;
};

class Session : public ::testing::Test {
 protected:
  static SessionBed& bed() {
    static SessionBed instance;
    return instance;
  }
};

TEST_F(Session, HonestProverAcceptedOnPerfectLink) {
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 1);
  FaultyChannel link({}, {}, 10);
  AttestationSession session(bed().verifier, link);
  Xoshiro256pp rng(11);
  const auto outcome = session.run(bed().responder_for(prover), rng);
  EXPECT_EQ(outcome.status, SessionStatus::kAccepted);
  ASSERT_EQ(outcome.attempts.size(), 1u);
  EXPECT_EQ(outcome.attempts[0].verify, VerifyStatus::kAccepted);
}

TEST_F(Session, HonestProverSurvivesLossyChannelWithRetries) {
  // 5% per-packet loss; with a 5-attempt budget the probability that every
  // attempt loses a frame is ~(2*0.05)^5 = 1e-5, so 20 sessions all pass.
  FaultParams faults;
  faults.loss_prob = 0.05;
  SessionPolicy policy;
  policy.max_attempts = 5;
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 2);
  Xoshiro256pp rng(12);
  std::size_t retried_sessions = 0;
  for (int s = 0; s < 20; ++s) {
    FaultyChannel link({}, faults, 1000 + s);
    AttestationSession session(bed().verifier, link, policy);
    const auto outcome = session.run(bed().responder_for(prover), rng);
    EXPECT_EQ(outcome.status, SessionStatus::kAccepted) << "session " << s;
    if (outcome.attempts.size() > 1) ++retried_sessions;
  }
  EXPECT_GT(retried_sessions, 0u) << "the loss process never fired";
}

TEST_F(Session, RetriesAlwaysCarryFreshNonces) {
  FaultParams faults;
  faults.loss_prob = 1.0;  // total dead zone: every attempt is spent
  SessionPolicy policy;
  policy.max_attempts = 6;
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 3);
  FaultyChannel link({}, faults, 77);
  AttestationSession session(bed().verifier, link, policy);
  Xoshiro256pp rng(13);
  const auto outcome = session.run(bed().responder_for(prover), rng);
  EXPECT_EQ(outcome.status, SessionStatus::kTimeout);
  ASSERT_EQ(outcome.attempts.size(), 6u);
  std::set<std::uint64_t> nonces;
  for (const auto& attempt : outcome.attempts) {
    EXPECT_TRUE(nonces.insert(attempt.nonce).second)
        << "a retry reused a nonce";
    EXPECT_FALSE(attempt.request_delivered);
  }
}

TEST_F(Session, SameSeedsReproduceTheAttemptTrace) {
  FaultParams faults;
  faults.loss_prob = 0.3;
  faults.bit_error_rate = 1e-4;
  faults.jitter_sigma = 0.2;
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 4);
  auto run_once = [&] {
    FaultyChannel link({}, faults, 555);
    AttestationSession session(bed().verifier, link);
    Xoshiro256pp rng(14);
    return session.run(bed().responder_for(prover), rng);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.status, b.status);
  ASSERT_EQ(a.attempts.size(), b.attempts.size());
  for (std::size_t i = 0; i < a.attempts.size(); ++i) {
    EXPECT_EQ(a.attempts[i].nonce, b.attempts[i].nonce);
    EXPECT_EQ(a.attempts[i].request_delivered, b.attempts[i].request_delivered);
    EXPECT_EQ(a.attempts[i].response_corrupted, b.attempts[i].response_corrupted);
    EXPECT_DOUBLE_EQ(a.attempts[i].elapsed_us, b.attempts[i].elapsed_us);
    EXPECT_EQ(a.attempts[i].verify, b.attempts[i].verify);
  }
  EXPECT_DOUBLE_EQ(a.total_us, b.total_us);
}

TEST_F(Session, ChecksumMismatchIsDefinitiveAndNotRetried) {
  auto tampered = bed().record;
  for (std::size_t w = 700; w < 760; ++w) {
    tampered.enrolled_image[w] ^= 0xBADF00Du;
  }
  CpuProver malware(bed().device, tampered, CpuProver::Variant::kHonest, 5);
  FaultyChannel link({}, {}, 20);
  AttestationSession session(bed().verifier, link);
  Xoshiro256pp rng(15);
  const auto outcome = session.run(bed().responder_for(malware), rng);
  EXPECT_EQ(outcome.status, SessionStatus::kRejected);
  ASSERT_EQ(outcome.attempts.size(), 1u)
      << "an intact failing response must terminate the session";
  EXPECT_EQ(outcome.attempts[0].verify, VerifyStatus::kChecksumMismatch);
}

TEST_F(Session, RedirectMalwareRejectedOnEveryAttempt) {
  // kTimeExceeded is retried (it could be jitter), but each retry runs
  // under its own per-attempt deadline, so the redirect attack fails every
  // one of them and the session ends rejected — retries never extend the
  // deadline.
  CpuProver redirect(bed().device, bed().record,
                     CpuProver::Variant::kRedirectMalware, 6);
  SessionPolicy policy;
  policy.max_attempts = 3;
  FaultyChannel link({}, {}, 30);
  AttestationSession session(bed().verifier, link, policy);
  Xoshiro256pp rng(16);
  const auto outcome = session.run(bed().responder_for(redirect), rng);
  EXPECT_EQ(outcome.status, SessionStatus::kRejected);
  ASSERT_EQ(outcome.attempts.size(), 3u);
  for (const auto& attempt : outcome.attempts) {
    EXPECT_EQ(attempt.verify, VerifyStatus::kTimeExceeded);
  }
}

TEST_F(Session, CorruptedFramesAreTransportFaultsNotEvidence) {
  // A high bit-error rate mangles every response; the CRC catches it and
  // the session must end kTransportCorrupted, never kRejected: corrupted
  // transit bits are not evidence against the prover.
  FaultParams faults;
  faults.bit_error_rate = 0.01;  // ~300 flips per response frame
  SessionPolicy policy;
  policy.max_attempts = 3;
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 7);
  FaultyChannel link({}, faults, 40);
  AttestationSession session(bed().verifier, link, policy);
  Xoshiro256pp rng(17);
  const auto outcome = session.run(bed().responder_for(prover), rng);
  EXPECT_EQ(outcome.status, SessionStatus::kTransportCorrupted);
  EXPECT_FALSE(outcome.conclusive());
  for (const auto& attempt : outcome.attempts) {
    EXPECT_FALSE(attempt.verify.has_value());
  }
  EXPECT_GT(link.counters().packets_corrupted, 0u);
}

TEST_F(Session, NonFiniteComputeTimeCountsAsTimedOut) {
  // A reply whose reported time is NaN (or -inf) never arrived as far as
  // the verifier's clock is concerned: every attempt times out, nothing is
  // verified, and the session's total time stays finite.
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 9);
  for (const double compute_us : {std::numeric_limits<double>::quiet_NaN(),
                                   -std::numeric_limits<double>::infinity()}) {
    const Responder responder = [&](const AttestationRequest& request) {
      return ProverReply{prover.respond(request).response, compute_us};
    };
    SessionPolicy policy;
    policy.max_attempts = 2;
    FaultyChannel link({}, {}, 70);
    AttestationSession session(bed().verifier, link, policy);
    Xoshiro256pp rng(19);
    const auto outcome = session.run(responder, rng);
    EXPECT_EQ(outcome.status, SessionStatus::kTimeout) << compute_us;
    ASSERT_EQ(outcome.attempts.size(), 2u);
    for (const auto& attempt : outcome.attempts) {
      EXPECT_FALSE(attempt.response_delivered);
      EXPECT_FALSE(attempt.verify.has_value());
      EXPECT_EQ(attempt.elapsed_us, policy.response_timeout_us);
    }
    EXPECT_TRUE(std::isfinite(outcome.total_us));
  }
}

TEST_F(Session, BackoffGrowsExponentially) {
  FaultParams faults;
  faults.loss_prob = 1.0;
  SessionPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_us = 10'000.0;
  policy.backoff_factor = 2.0;
  policy.backoff_jitter = 0.0;
  CpuProver prover(bed().device, bed().record, CpuProver::Variant::kHonest, 8);
  FaultyChannel link({}, faults, 50);
  AttestationSession session(bed().verifier, link, policy);
  Xoshiro256pp rng(18);
  const auto outcome = session.run(bed().responder_for(prover), rng);
  ASSERT_EQ(outcome.attempts.size(), 4u);
  EXPECT_DOUBLE_EQ(outcome.attempts[0].backoff_us, 0.0);
  EXPECT_DOUBLE_EQ(outcome.attempts[1].backoff_us, 10'000.0);
  EXPECT_DOUBLE_EQ(outcome.attempts[2].backoff_us, 20'000.0);
  EXPECT_DOUBLE_EQ(outcome.attempts[3].backoff_us, 40'000.0);
}

TEST_F(Session, RejectsBadPolicy) {
  FaultyChannel link({}, {}, 60);
  SessionPolicy policy;
  policy.max_attempts = 0;
  EXPECT_THROW(AttestationSession(bed().verifier, link, policy),
               std::invalid_argument);
  policy.max_attempts = 2;
  policy.backoff_factor = 0.5;
  EXPECT_THROW(AttestationSession(bed().verifier, link, policy),
               std::invalid_argument);
}

// --- degraded distributed audits --------------------------------------------

TEST(DistributedDegraded, PartitionedNodeEndsRoundInconclusive) {
  DistributedParams params;
  params.num_nodes = 6;
  DistributedNetwork net(params, {}, 21);
  net.set_partitioned(4, true);
  Xoshiro256pp rng(22);
  const auto verdicts = net.run_round(rng);
  const auto& dead = verdicts[4];
  EXPECT_EQ(dead.audits, 4u);
  EXPECT_EQ(dead.completed, 0u);
  EXPECT_EQ(dead.inconclusive, 4u);
  EXPECT_EQ(dead.rejections, 0u);
  EXPECT_FALSE(dead.convicted) << "silence must not read as guilt";
  EXPECT_FALSE(dead.evidence_met);
  EXPECT_GT(dead.packets_lost, 0u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i == 4) continue;
    EXPECT_FALSE(verdicts[i].convicted) << "node " << i;
    EXPECT_TRUE(verdicts[i].evidence_met);
  }
}

TEST(DistributedDegraded, LossyRadioStillConvictsMalwareOnly) {
  DistributedParams params;
  params.num_nodes = 6;
  params.radio_faults.loss_prob = 0.05;
  params.session.max_attempts = 5;
  DistributedNetwork net(params, {{2, NodeHealth::kNaiveMalware}}, 23);
  Xoshiro256pp rng(24);
  const auto verdicts = net.run_round(rng);
  EXPECT_TRUE(verdicts[2].convicted);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i == 2) continue;
    EXPECT_FALSE(verdicts[i].convicted) << "node " << i;
  }
}

TEST(DistributedDegraded, PartitionToggleRestoresAudits) {
  DistributedParams params;
  params.num_nodes = 6;
  DistributedNetwork net(params, {}, 25);
  net.set_partitioned(1, true);
  EXPECT_TRUE(net.partitioned(1));
  Xoshiro256pp rng(26);
  EXPECT_EQ(net.run_round(rng)[1].completed, 0u);
  net.set_partitioned(1, false);
  const auto verdicts = net.run_round(rng);
  EXPECT_EQ(verdicts[1].completed, 4u);
  EXPECT_FALSE(verdicts[1].convicted);
  EXPECT_THROW(net.set_partitioned(99, true), std::invalid_argument);
}

}  // namespace
}  // namespace pufatt::core

// The PUFatt remote attestation protocol (paper Section 3, Figure 2).
//
//   Verifier                                   Prover
//   --------                                   ------
//   nonce (x0, r0) ------------------------->  runs SWAT entangled with
//                                              PUF(); collects helper data
//   <------------- r (checksum state), helper transcript
//   checks elapsed <= delta  AND  r == recompute via PUF.Emulate()
//
// Provers come in several flavours: the honest device, the memory-
// redirection malware hider, the overclocker, and the analytic proxy
// (oracle) adversary — one per attack the paper's Section 4.2 analyses.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "alupuf/pipeline.hpp"
#include "core/channel.hpp"
#include "core/enrollment.hpp"
#include "cpu/machine.hpp"
#include "ecc/linear_code.hpp"
#include "support/rng.hpp"

namespace pufatt::core {

struct AttestationRequest {
  std::uint64_t nonce = 0;  ///< carries both x0 and r0 of the paper
};

/// Folds the 64-bit nonce into the 32-bit SWAT seed (never zero).
std::uint32_t seed_from_nonce(std::uint64_t nonce);

struct AttestationResponse {
  std::array<std::uint32_t, 8> checksum{};
  std::vector<std::uint32_t> helper_words;  ///< 8 per PUF call, in order

  /// Payload size on the wire (checksum + helper transcript).
  std::size_t wire_bytes() const {
    return checksum.size() * 4 + helper_words.size() * 4;
  }
};

enum class VerifyStatus {
  kAccepted,
  kTimeExceeded,
  kChecksumMismatch,
  kPufReconstructionFailed,
};

const char* to_string(VerifyStatus status);

struct VerifyResult {
  VerifyStatus status = VerifyStatus::kChecksumMismatch;
  double elapsed_us = 0.0;
  double deadline_us = 0.0;
  bool accepted() const { return status == VerifyStatus::kAccepted; }
};

class Verifier {
 public:
  /// `code` must outlive the verifier (RM(1,5) for the 32-bit protocol).
  /// `slack` is the tolerance on the honest compute time; the channel
  /// budget for the two protocol messages is added on top.
  /// `max_avg_weighted_ps` is the whole-transcript budget on the average
  /// reliability-weighted reconstruction distance per PUF call (ps).
  /// Summing over all calls makes the statistic ~sqrt(calls) more
  /// sensitive than the per-call threshold, closing the marginal-overclock
  /// window (see DESIGN.md).
  /// The verifier shares `device` (non-null; std::invalid_argument
  /// otherwise) and emulates with its model, so a build derives nothing:
  /// a registry snapshot stays one allocation, with one model, however
  /// many verifiers are built from it.
  Verifier(std::shared_ptr<const DeviceSnapshot> device,
           const ecc::BinaryCode& code, const ChannelParams& channel = {},
           double slack = 0.03, double max_avg_weighted_ps = 36.0);

  /// Over a record the verifier owns alone: derives a private snapshot,
  /// refusing the record as DeviceSnapshot does.
  Verifier(EnrollmentRecord record, const ecc::BinaryCode& code,
           const ChannelParams& channel = {}, double slack = 0.03,
           double max_avg_weighted_ps = 36.0)
      : Verifier(std::make_shared<const DeviceSnapshot>(std::move(record)),
                 code, channel, slack, max_avg_weighted_ps) {}

  AttestationRequest make_request(support::Xoshiro256pp& rng) const;

  /// Total time bound delta (compute + channel), microseconds.
  double deadline_us(const AttestationResponse& response) const;

  /// Verifies a response measured at `elapsed_us` (prover compute time plus
  /// channel time, as seen by the verifier's clock).  An elapsed time that
  /// is not in [0, deadline] — NaN and negative values included — is
  /// kTimeExceeded.
  VerifyResult verify(const AttestationRequest& request,
                      const AttestationResponse& response,
                      double elapsed_us) const;

  const EnrollmentRecord& record() const { return *device_; }
  /// The shared snapshot itself: the identity a cache compares to decide
  /// whether this verifier was built from a registry's current snapshot.
  const std::shared_ptr<const DeviceSnapshot>& snapshot() const {
    return device_;
  }
  /// PUF.Emulate() over the snapshot's model.
  const alupuf::PufEmulator& emulator() const { return emulator_; }

 private:
  std::shared_ptr<const DeviceSnapshot> device_;
  alupuf::PufEmulator emulator_;
  Channel channel_;
  double slack_;
  double max_avg_weighted_ps_;
};

/// A prover running the real PR32 machine with an attached physical PUF.
class CpuProver {
 public:
  enum class Variant {
    kHonest,           ///< enrolled image, honest program
    kRedirectMalware,  ///< tampered image + pristine copy + redirection
  };

  /// `device` must outlive the prover.  `clock_mhz` defaults to the
  /// profile's base clock; raising it models the overclocking attack.
  CpuProver(const alupuf::PufDevice& device, const EnrollmentRecord& record,
            Variant variant, std::uint64_t rng_seed,
            std::optional<double> clock_mhz = std::nullopt);

  struct Outcome {
    AttestationResponse response;
    std::uint64_t cycles = 0;
    double compute_us = 0.0;  ///< cycles at the prover's actual clock
  };

  Outcome respond(const AttestationRequest& request);

  double clock_mhz() const { return clock_mhz_; }

 private:
  const alupuf::PufDevice* device_;
  EnrollmentRecord record_;
  Variant variant_;
  support::Xoshiro256pp rng_;
  double clock_mhz_;
  std::vector<std::uint32_t> memory_;  ///< full prover memory image
};

/// The proxy (oracle) adversary of Section 4.2: a powerful remote machine
/// computes the checksum but must query the victim device's PUF over the
/// constrained channel for every PUF call.
struct ProxyAttackParams {
  double accomplice_speedup = 10.0;  ///< relative to the honest prover CPU
  ChannelParams oracle_channel;      ///< victim <-> accomplice link
};

struct ProxyOutcome {
  AttestationResponse response;
  double elapsed_us = 0.0;
  std::size_t oracle_calls = 0;
};

ProxyOutcome proxy_attack(const alupuf::PufDevice& victim,
                          const EnrollmentRecord& record,
                          const AttestationRequest& request,
                          const ProxyAttackParams& params,
                          support::Xoshiro256pp& rng);

}  // namespace pufatt::core

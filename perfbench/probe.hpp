// Layer probe: one attestation verify, timed layer by layer from outside
// the library.
//
// core::Verifier::verify runs swat::compute_checksum over its private
// PufEmulator, so its layers cannot be timed without touching src/.  The
// probe composes the same public calls itself — the deadline check,
// compute_checksum driven through core::emulator_query, the whole-
// transcript budget, the checksum compare — with a timer around every
// PUF call and the call's 8 challenges captured.  After the verify it
// replays each captured call layer by layer on the same inputs:
//
//   timingsim  AluPufEmulator::eval_soft_batch on the 8 challenges
//   ecc        SyndromeHelper::reproduce_soft per response
//   alupuf     ObfuscationNetwork::obfuscate on the reconstructed words
//   swat       compute_checksum with the captured z values fed back, so it
//              contains no PUF work
//
// Every replay must reproduce what the verify saw (same z, same checksum
// state), and callers require the probe's verdict to equal the one
// core::Verifier gave the same transcript, so the probe cannot drift from
// the code it stands in for unnoticed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "alupuf/obfuscation.hpp"
#include "alupuf/pipeline.hpp"
#include "core/protocol.hpp"
#include "ecc/helper_data.hpp"

namespace perfbench {

/// Layer times summed over every verdict the probe ran.
struct LayerTimes {
  std::uint64_t verdicts = 0;
  double verify_us = 0.0;          ///< the probed verify, end to end
  std::uint64_t puf_calls = 0;     ///< emulator_query calls made
  double emulate_us = 0.0;         ///< summed over those calls
  std::uint64_t soft_batches = 0;  ///< calls replayed through the engine
  double soft_batch_us = 0.0;
  std::uint64_t responses = 0;     ///< reproduce_soft calls replayed
  double reproduce_soft_us = 0.0;
  std::uint64_t obfuscations = 0;
  double obfuscate_us = 0.0;
  double checksum_self_us = 0.0;   ///< summed over verdicts
  std::uint64_t early_rejects = 0; ///< reconstruction failed mid-checksum
  std::uint64_t reject_call_sum = 0;  ///< 1-based index of the failing call

  /// Time the named layers account for: engine + decoder + obfuscation +
  /// PUF-free checksum.
  double leaf_us() const {
    return soft_batch_us + reproduce_soft_us + obfuscate_us + checksum_self_us;
  }
};

class LayerProbe {
 public:
  /// `code` must outlive the probe.
  LayerProbe(const pufatt::core::EnrollmentRecord& record,
             const pufatt::ecc::BinaryCode& code);

  /// Verifies like core::Verifier::verify and adds this verdict's layer
  /// times to `times`.  Throws CheckFailed when a replay disagrees with
  /// the verify it replays.
  pufatt::core::VerifyStatus verify(
      const pufatt::core::AttestationRequest& request,
      const pufatt::core::AttestationResponse& response, double elapsed_us,
      LayerTimes& times);

 private:
  struct Call {
    std::array<std::uint64_t, 8> challenges{};
    std::optional<std::uint32_t> z;
  };

  void replay(const std::vector<Call>& calls,
              const pufatt::core::AttestationRequest& request,
              const pufatt::core::AttestationResponse& response,
              const pufatt::swat::ChecksumResult& expected, LayerTimes& times);

  pufatt::core::Verifier verifier_;
  pufatt::alupuf::PufEmulator emulator_;
  pufatt::ecc::SyndromeHelper helper_;
  pufatt::alupuf::ObfuscationNetwork obfuscation_;
};

}  // namespace perfbench

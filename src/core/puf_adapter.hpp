// Glue between the CPU's PUF port, the ALU PUF pipeline and the SWAT
// checksum engine.  Keeps cpu/ and swat/ independent of alupuf/.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "alupuf/pipeline.hpp"
#include "cpu/machine.hpp"
#include "support/rng.hpp"
#include "swat/checksum.hpp"

namespace pufatt::core {

/// Packs a 64-bit raw challenge into the PUF's 2*width-bit challenge form;
/// requires width == 32 (the protocol configuration).
alupuf::Challenge challenge_from_u64(std::uint64_t challenge);

/// Converts between helper BitVectors and the 32-bit helper words that
/// travel through the CPU FIFO and the protocol messages.
std::uint32_t helper_to_word(const support::BitVector& helper);
support::BitVector helper_from_word(std::uint32_t word,
                                    std::size_t helper_bits);

/// cpu::PufPort backed by a physical PufDevice: collects the 8 PUF-mode
/// `add` challenges, then runs the full pipeline (races, syndromes,
/// obfuscation) on `pend` as one PufDevice::query_words call.  The capture
/// deadline from the CPU clock is honoured per evaluation, so overclocking
/// corrupts responses exactly as in Section 4.2 of the paper.  The port
/// owns the noisy-batch scratch its calls share (it lives for one
/// attestation run), so the device keeps none.
class DevicePufPort final : public cpu::PufPort {
 public:
  DevicePufPort(const alupuf::PufDevice& device, variation::Environment env,
                support::Xoshiro256pp& rng);

  void start() override;
  void feed(std::uint64_t challenge, double cycle_ps) override;
  std::uint32_t finish(std::vector<std::uint32_t>& helper_words) override;

  /// Register setup time of the response latch (T_set in the paper's
  /// T_ALU + T_set < T_cycle condition).
  void set_setup_ps(double setup_ps) { setup_ps_ = setup_ps; }

 private:
  const alupuf::PufDevice* device_;
  variation::Environment env_;
  support::Xoshiro256pp* rng_;
  double setup_ps_ = 20.0;
  alupuf::CallWords challenges_{};
  alupuf::AluPufBatchScratch scratch_;
  std::size_t fed_ = 0;
  double cycle_ps_ = 0.0;
};

/// swat::PufQuery adapter over a physical device (native prover path):
/// records the helper words of every call into `transcript`.  Challenge
/// words go straight to PufDevice::query_words; the query owns the
/// noisy-batch scratch its calls share.
swat::PufQuery device_query(const alupuf::PufDevice& device,
                            const variation::Environment& env,
                            support::Xoshiro256pp& rng,
                            std::vector<std::uint32_t>& transcript);

/// swat::PufQuery adapter over the verifier's emulator: consumes helper
/// words from `transcript` in order; yields nullopt on reconstruction
/// failure or transcript exhaustion.  When `total_weighted_ps` is non-null
/// it accumulates the reliability-weighted reconstruction distance over
/// every call, which the verifier checks against a whole-transcript budget.
/// Challenge and helper words go straight to PufEmulator::emulate_words;
/// a call builds no BitVector.  The query owns the bit-sliced scratch its
/// calls share, so the emulator stays a shared, read-only value.
swat::PufQuery emulator_query(const alupuf::PufEmulator& emulator,
                              const std::vector<std::uint32_t>& transcript,
                              std::size_t& cursor,
                              double* total_weighted_ps = nullptr);

}  // namespace pufatt::core

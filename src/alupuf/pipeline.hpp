// The complete PUF() pipeline of the attestation protocol:
//
//   64-bit protocol challenge x
//     -> ChallengeExpander -> 8 raw adder challenges
//     -> AluPuf (physical race, noisy)           -> 8 raw responses y'_r
//     -> SyndromeHelper (per response)           -> 8 helper words h_r
//     -> ObfuscationNetwork                      -> output z
//
// PufDevice is the prover side; PufEmulator is the verifier side, which
// reconstructs each exact y'_r from its emulated reference and h_r, then
// applies the identical obfuscation.  PUF() in the paper's protocol figure
// corresponds to PufDevice::query / PufEmulator::emulate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "alupuf/obfuscation.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/linear_code.hpp"

namespace pufatt::alupuf {

/// Deterministically expands a 64-bit protocol challenge into the 8 raw
/// adder challenges one obfuscated output consumes.  Both protocol sides
/// run this expansion, so only 64 bits travel in the protocol.
class ChallengeExpander {
 public:
  static std::vector<Challenge> expand(std::uint64_t x, std::size_t width);
};

/// The 8 words of one PUF() call: raw challenges (2*width bits each, a
/// then b) or helper words (low helper_bits() bits each).
using CallWords =
    std::array<std::uint64_t, ObfuscationNetwork::kResponsesPerOutput>;

/// Result of one word-level PUF() query on the prover.
struct PufOutputWords {
  std::uint64_t z = 0;  ///< bit i = output bit i
  CallWords helpers{};  ///< helper data per raw response, in call order
};

/// Result of one PUF() query on the prover.
struct PufOutput {
  support::BitVector z;  ///< obfuscated response (width bits)
  /// Helper data per raw response; rides along with the attestation
  /// response so the verifier can reconstruct the prover's noisy readings.
  std::vector<support::BitVector> helpers;
};

/// Prover-side PUF(): physical ALU PUF + syndrome generator + obfuscation.
class PufDevice {
 public:
  /// `code.n()` must equal `config.width` (e.g. RM(1,5) for width 32).
  /// `code` must outlive the device.
  PufDevice(const AluPufConfig& config, std::uint64_t chip_seed,
            const ecc::BinaryCode& code);

  /// One PUF() call as a fixed-size word pipeline (width <= 32): the 8
  /// raw adder challenges race as one 8-lane AluPuf::eval_words batch in
  /// the caller's `scratch` (its RNG contract: exactly one `rng.next()`
  /// per call, ziggurat noise per lane, the capture-deadline coin when
  /// `clock` is set), each response's syndrome is taken on a machine word
  /// and the obfuscation folds and rotates words.  The path the CPU's PUF
  /// port uses (each PUF-mode `add` carries one challenge in its register
  /// operands); allocates nothing once `scratch` has run a call.
  PufOutputWords query_words(const CallWords& challenges,
                             const variation::Environment& env,
                             support::Xoshiro256pp& rng,
                             const ClockConstraint* clock,
                             AluPufBatchScratch& scratch) const;

  /// One PUF() call from a 64-bit protocol challenge: 8 physical
  /// evaluations at `env`.  Wraps query_words with a call-local scratch.
  PufOutput query(std::uint64_t challenge, const variation::Environment& env,
                  support::Xoshiro256pp& rng,
                  const ClockConstraint* clock = nullptr) const;

  /// Same, with the 8 raw adder challenges supplied as BitVectors; wraps
  /// query_words with a call-local scratch.
  PufOutput query_raw(
      const std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput>&
          challenges,
      const variation::Environment& env, support::Xoshiro256pp& rng,
      const ClockConstraint* clock = nullptr) const;

  /// Batched PUF(): `count` protocol challenges in one AluPuf::eval_batch
  /// pass (count*8 physical evaluations).  Follows the
  /// AluPuf::eval_batch RNG contract — one `rng.next()` consumed for the
  /// whole batch, every lane independent of batch split and thread count.
  /// `scratch` as in AluPuf::eval_batch (pass one per worker thread).
  std::vector<PufOutput> query_batch(
      const std::uint64_t* challenges, std::size_t count,
      const variation::Environment& env, support::Xoshiro256pp& rng,
      const ClockConstraint* clock = nullptr,
      AluPufBatchScratch* scratch = nullptr) const;

  /// Manufacturer enrollment: the delay table H handed to the verifier.
  variation::DelayTable export_model() const { return puf_.export_model(); }

  std::size_t output_bits() const { return obfuscation_.output_bits(); }
  std::size_t helper_bits() const { return helper_.helper_bits(); }
  const AluPuf& raw_puf() const { return puf_; }

 private:
  AluPuf puf_;
  ecc::SyndromeHelper helper_;
  ObfuscationNetwork obfuscation_;
};

/// Verifier-side PUF.Emulate(): delay-table emulation + helper-data
/// reconstruction + obfuscation.
///
/// Besides recomputing z, the emulator enforces a *reconstruction distance
/// budget*: the total Hamming distance between the reconstructed responses
/// and the emulated references over one PUF() call must stay within the
/// honest noise envelope.  This is the paper's "the attack will be detected
/// by ... wrong responses from the ALU PUF": a reverse fuzzy extractor
/// faithfully reconstructs whatever the prover measured, so corrupted
/// (overclocked) or foreign (impostor) responses must be rejected by
/// distance, not by decoding failure.
class PufEmulator {
 public:
  /// Over a model built elsewhere (non-null), which the emulator shares
  /// rather than copies: a core::DeviceSnapshot's, for one.  Its width
  /// must be <= 32 (one challenge per machine word); `code.n()` must equal
  /// it and `code` must outlive the emulator.
  PufEmulator(std::shared_ptr<const AluPufEmulator> emulator,
              const ecc::BinaryCode& code);

  /// Over a private model derived from H (read, not kept).
  PufEmulator(std::size_t width, const variation::DelayTable& model,
              const ecc::BinaryCode& code,
              const netlist::AluPufLayout& layout = {});

  /// Maximum summed HD(reconstructed, reference) per PUF() call (8
  /// responses).  48 sits well above the honest mean (~22 for the
  /// calibrated 32-bit PUF, max ~33 observed) while impostor transcripts
  /// (~64) land beyond it.
  static constexpr std::size_t kMaxCallDistance = 48;
  std::size_t max_call_distance() const { return kMaxCallDistance; }

  /// Maximum *reliability-weighted* disagreement per PUF() call: the sum of
  /// the emulated race margins (ps) over all bits where the reconstruction
  /// disagrees with the reference.  An honest prover only disagrees on
  /// low-margin (metastable) bits, so this sum stays tiny; corrupted or
  /// foreign responses — and ML-decoding errors that snap onto a nearby
  /// codeword — disagree on high-margin bits and blow the budget.  This is
  /// a per-bit likelihood-ratio test and the protocol's main response
  /// authenticity check (see DESIGN.md).  60 ps = roughly honest mean +
  /// 6 sigma for the calibrated model.
  static constexpr double kMaxWeightedDistancePs = 60.0;
  double max_weighted_distance() const { return kMaxWeightedDistancePs; }

  /// Reconstruction distance of one PUF() call — verifiers aggregate these
  /// across a whole attestation transcript (the summed statistic separates
  /// marginal overclocking far better than any per-call threshold).
  struct CallStats {
    std::size_t distance = 0;
    double weighted_ps = 0.0;
  };
  struct CallResult {
    std::optional<std::uint64_t> z;  ///< bit i = output bit i
    CallStats stats;  ///< as far as reconstruction got
  };
  using Words = CallWords;

  /// One PUF() call as a fixed-size word pipeline: the 8 raw challenges
  /// (2*width bits each, as in PufDevice::query_words) run as one
  /// bit-sliced soft batch in the caller's `state`, each response is
  /// reconstructed from its helper word on machine words, both distance
  /// budgets are checked, and the obfuscation folds and rotates words.  A
  /// helper word with any bit set at or above helper_bits() fails the call
  /// (no prover emits one, so the transcript was altered).  No heap
  /// allocation once `state` has run a call.  `z` is empty when
  /// reconstruction fails or a budget trips (an honest-prover false
  /// negative or a forged transcript).
  CallResult emulate_words(const Words& challenges, const Words& helpers,
                           timingsim::BitSliceState& state) const;

  /// Recomputes z for a challenge given the prover's helper data; nullopt
  /// when reconstruction fails (reference and measurement too far apart —
  /// an honest-prover false negative or a forged transcript).
  std::optional<support::BitVector> emulate(
      std::uint64_t challenge,
      const std::vector<support::BitVector>& helpers) const;

  /// Raw-challenge variant matching PufDevice::query_raw.  Both wrap
  /// emulate_words with a call-local state.
  std::optional<support::BitVector> emulate_raw(
      const std::array<Challenge, ObfuscationNetwork::kResponsesPerOutput>&
          challenges,
      const std::vector<support::BitVector>& helpers) const;

  std::size_t output_bits() const { return obfuscation_.output_bits(); }
  std::size_t helper_bits() const { return helper_.helper_bits(); }
  const AluPufEmulator& raw_emulator() const { return *emulator_; }

 private:
  std::shared_ptr<const AluPufEmulator> emulator_;
  ecc::SyndromeHelper helper_;
  ObfuscationNetwork obfuscation_;
};

}  // namespace pufatt::alupuf

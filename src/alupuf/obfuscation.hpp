// The paper's two-phase XOR obfuscation network (Section 2, "Response
// Obfuscation"), functional model.
//
// Phase 1: fold each 2n-bit response y_r to n bits, a_r[i] = y_r[i] XOR
// y_r[i+n]; concatenate pairs into four 2n-bit words b_j = a_{2j}||a_{2j+1}.
// Phase 2: z = b_0 XOR b_1 XOR b_2 XOR b_3.
//
// One obfuscated output therefore consumes kResponsesPerOutput = 8 raw PUF
// responses, which is why a single logical PUF() call in the attestation
// protocol triggers eight physical ALU races.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/bitvec.hpp"

namespace pufatt::alupuf {

class ObfuscationNetwork {
 public:
  static constexpr std::size_t kResponsesPerOutput = 8;

  /// Phase-1 bit pairing.
  ///
  /// kPaper pairs bit i with bit i+n, exactly as the paper specifies.
  /// Combined with RM(1,5) helper data this pairing is *degenerate*: every
  /// RM(1,5) codeword c satisfies c[i] XOR c[i+n] = const, and every
  /// helper-data reconstruction error is a codeword, so reconstruction
  /// errors fold to all-zero/all-one blocks that frequently cancel in
  /// phase 2 — a verification blind spot we found during reproduction
  /// (DESIGN.md section 6, EXPERIMENTS.md).
  ///
  /// kHardened pairs bits under a fixed pseudorandom matching, so a
  /// codeword error folds to a nonconstant pattern and any reconstruction
  /// error scrambles z.  The attestation pipeline defaults to kHardened;
  /// the figure-reproduction benches use kPaper.
  enum class Pairing { kPaper, kHardened };

  /// `response_bits` (= 2n) must be even and at most 64.
  explicit ObfuscationNetwork(std::size_t response_bits,
                              Pairing pairing = Pairing::kPaper);

  std::size_t response_bits() const { return two_n_; }
  std::size_t output_bits() const { return two_n_; }
  Pairing pairing() const { return pairing_; }

  /// Phase-1 fold of one raw response: 2n bits -> n bits.
  support::BitVector fold(const support::BitVector& response) const;

  /// Full two-phase obfuscation of 8 raw responses into one 2n-bit output.
  support::BitVector obfuscate(
      const std::array<support::BitVector, kResponsesPerOutput>& responses)
      const;

  /// The word kernels the two calls above wrap: bit i of a word is bit i
  /// of the response (bits at or above 2n are ignored) or of the output.
  std::uint64_t fold_word(std::uint64_t response) const;
  std::uint64_t obfuscate_words(
      const std::array<std::uint64_t, kResponsesPerOutput>& responses) const;

 private:
  std::size_t two_n_;
  Pairing pairing_;
  /// pair_[k] = {p, q}: fold output bit k = y[p] XOR y[q].
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
};

}  // namespace pufatt::alupuf

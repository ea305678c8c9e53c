// First-order Reed-Muller codes RM(1, m): parameters [2^m, m+1, 2^{m-1}].
//
// RM(1,5) = [32, 6, 16] is the code the paper's helper-data scheme actually
// uses (the paper calls it "BCH[32,6,16]"; no primitive BCH code has those
// parameters — see DESIGN.md section 6).  Decoding is maximum-likelihood
// via the fast Hadamard transform (the classic "Green machine"), which
// guarantees correction of up to 7 errors for m = 5 and usually succeeds
// well beyond that radius — which is how the paper's "up to 16 bit errors"
// reading can approximately hold in practice.
#pragma once

#include <cstdint>
#include <vector>

#include "ecc/linear_code.hpp"

namespace pufatt::ecc {

class ReedMuller1 final : public BinaryCode {
 public:
  /// RM(1, m) for 2 <= m <= 16.  The syndrome preimage table makes
  /// construction ~0.2 ms at m = 5, growing ~8x per step of m.
  explicit ReedMuller1(unsigned m);

  std::size_t n() const override { return n_; }
  std::size_t k() const override { return static_cast<std::size_t>(m_) + 1; }
  std::size_t guaranteed_correction() const override {
    return (min_distance() - 1) / 2;
  }
  std::size_t min_distance() const override { return n_ / 2; }

  support::BitVector encode(const support::BitVector& message) const override;

  /// ML decoding never fails to produce a codeword (it may produce the
  /// wrong one beyond the guaranteed radius).
  std::optional<support::BitVector> decode_to_codeword(
      const support::BitVector& word) const override;
  std::optional<support::BitVector> decode(
      const support::BitVector& word) const override;

  /// Soft-decision ML decoding via the real-valued Hadamard transform:
  /// maximizes the reliability-weighted correlation over all codewords.
  /// Corrects far beyond the hard-decision radius when the error bits are
  /// the low-reliability ones (exactly the PUF metastability case).
  std::optional<support::BitVector> decode_soft_to_codeword(
      const std::vector<double>& llr) const override;

  /// The word-level soft decoder (m <= 6): the same transform on a stack
  /// array, the same first-maximum tie-break, and the codeword taken from
  /// a precomputed table.  decode_soft_to_codeword wraps it.
  std::optional<std::uint64_t> decode_soft_word(
      const double* llr) const override;

  /// The |correlation| margin of the last-but-stateless decode: returns the
  /// ML correlation peak for `word` (n - 2*distance_to_best_codeword).
  /// Exposed for the false-negative-rate study.
  int correlation_peak(const support::BitVector& word) const;

 private:
  /// Message layout: bit 0 = affine constant u0, bits 1..m = linear part.
  support::BitVector decode_message(const support::BitVector& word) const;
  /// The message of Hadamard peak index `peak` (the linear part) with
  /// affine constant `negative`.
  support::BitVector message_at(std::size_t peak, bool negative) const;

  unsigned m_;
  std::size_t n_;
  /// m <= 6 only: linear_words_[idx] = codeword with linear part idx and
  /// u0 = 0, bit i = codeword bit i.
  std::vector<std::uint64_t> linear_words_;
};

}  // namespace pufatt::ecc

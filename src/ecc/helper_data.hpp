// Syndrome-construction helper data ("reverse fuzzy extractor",
// Herrewege et al., FC 2012 — the paper's reference [8]).
//
// Prover side (cheap, pure hardware): h = H * y', the syndrome of the noisy
// PUF response.  Verifier side: knowing a reference response y_ref with
// HD(y_ref, y') <= t, reconstruct the *exact* y' the prover used:
//     y0   := any word with syndrome h          (precomputed pseudo-inverse)
//     c    := decode_to_codeword(y_ref XOR y0)  (= y' XOR y0 when close)
//     y'   = c XOR y0
// Both parties then run the obfuscation network on the identical y' — the
// paper's requirement that "obfuscation must be performed after error
// correction to maintain verifiability".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/linear_code.hpp"
#include "support/bitvec.hpp"

namespace pufatt::ecc {

class SyndromeHelper {
 public:
  /// `code` must outlive this object; y0 comes from its preimage table.
  explicit SyndromeHelper(const BinaryCode& code);

  /// Helper data for a measured response (n bits in, n-k bits out).
  support::BitVector generate(const support::BitVector& response) const;

  /// Word form of generate for codes of at most 64 bits: bit i of
  /// `response` is response bit i (bits at or above n() are ignored), and
  /// bit j of the result is syndrome bit j, exactly helper_bits() wide.
  /// The prover's per-call path (PufDevice::query_words): one byte-table
  /// lookup per response byte (BinaryCode::syndrome_word); allocates nothing.
  std::uint64_t generate_word(std::uint64_t response) const;

  /// Reconstructs the prover's response from the verifier's reference and
  /// the received helper data; nullopt if the decoder gives up (reference
  /// too far from the prover's measurement).
  std::optional<support::BitVector> reproduce(
      const support::BitVector& reference,
      const support::BitVector& helper) const;

  /// Soft-decision reconstruction: `reference_llr[i]` > 0 means reference
  /// bit i is 0, with magnitude = reliability.  The PUF emulator supplies
  /// the race margin of each bit as its reliability, which lets the decoder
  /// discount exactly the metastability-prone bits and reconstruct well
  /// beyond the hard-decision radius.  Wraps reproduce_soft_word, so the
  /// code must be at most 64 bits long.
  std::optional<support::BitVector> reproduce_soft(
      const std::vector<double>& reference_llr,
      const support::BitVector& helper) const;

  /// Word-level soft reconstruction, the kernel reproduce_soft wraps
  /// (codes of at most 64 bits): `reference_llr` points at n() values,
  /// `helper`'s low helper_bits() bits are the helper data (higher bits are
  /// ignored), and bit i of the result is response bit i.  y0 comes from the
  /// code's byte-table preimage map; nothing is allocated.
  std::optional<std::uint64_t> reproduce_soft_word(const double* reference_llr,
                                                   std::uint64_t helper) const;

  std::size_t response_bits() const { return code_->n(); }
  std::size_t helper_bits() const { return code_->n() - code_->k(); }

  /// Bits of min-entropy surrendered by publishing the helper data (the
  /// syndrome reveals n-k linear combinations of the response).
  std::size_t leaked_bits() const { return helper_bits(); }

 private:
  const BinaryCode* code_;
};

}  // namespace pufatt::ecc

// Abstract binary linear block code interface.
//
// The helper-data scheme (helper_data.hpp) and the syndrome-generator
// hardware model (netlist/builder.hpp) are code-agnostic: they only need
// encode/decode and a parity-check matrix.  The concrete code is
// ReedMuller1 (reed_muller.hpp): the paper's "BCH[32,6,16]" is RM(1,5).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/gf2_matrix.hpp"
#include "support/bitvec.hpp"

namespace pufatt::ecc {

class BinaryCode {
 public:
  virtual ~BinaryCode() = default;

  /// Codeword length in bits.
  virtual std::size_t n() const = 0;
  /// Message length in bits.
  virtual std::size_t k() const = 0;
  /// Number of errors the decoder is guaranteed to correct.
  virtual std::size_t guaranteed_correction() const = 0;
  /// Minimum distance of the code.
  virtual std::size_t min_distance() const = 0;

  /// Encodes a k-bit message into an n-bit codeword.
  virtual support::BitVector encode(const support::BitVector& message) const = 0;

  /// Decodes a noisy n-bit word to the nearest codeword; nullopt when the
  /// decoder cannot produce one (bounded-distance decoders only).
  virtual std::optional<support::BitVector> decode_to_codeword(
      const support::BitVector& word) const = 0;

  /// Decodes a noisy n-bit word to the k-bit message.
  virtual std::optional<support::BitVector> decode(
      const support::BitVector& word) const = 0;

  /// Soft-decision decoding: `llr[i]` > 0 means bit i is more likely 0,
  /// with |llr[i]| the confidence.  Used by the verifier-side helper-data
  /// reconstruction, where the PUF emulation provides each bit's race
  /// margin as its reliability.
  virtual std::optional<support::BitVector> decode_soft_to_codeword(
      const std::vector<double>& llr) const = 0;

  /// Word-level soft decoding for codes of at most 64 bits: `llr` points at
  /// n() values (same convention as above); bit i of the result is codeword
  /// bit i.  The verifier's per-call reconstruction runs on this, so it
  /// should allocate nothing.
  virtual std::optional<std::uint64_t> decode_soft_word(
      const double* llr) const = 0;

  /// (n-k) x n parity-check matrix; its null space is exactly the code.
  const Gf2Matrix& parity_check() const { return parity_check_; }

  /// Syndrome of an n-bit word: H * w, an (n-k)-bit vector, zero iff w is
  /// a codeword.  This is the helper data of the PUF post-processing.
  support::BitVector syndrome(const support::BitVector& word) const {
    return parity_check().mul_vector(word);
  }

  /// Entry j: a fixed word whose syndrome is the j-th unit vector, so any
  /// word with syndrome h is the XOR of the entries of h's set bits (the
  /// helper data's y0).  One table per code; the word form is empty for
  /// codes longer than 64 bits.
  const std::vector<support::BitVector>& syndrome_preimages() const {
    return preimages_;
  }
  const std::vector<std::uint64_t>& syndrome_preimage_words() const {
    return preimage_words_;
  }

  /// Row j of the parity-check matrix as a word (bit i = column i), so
  /// syndrome bit j of a word w is the parity of `row & w`.  Empty for
  /// codes longer than 64 bits.
  const std::vector<std::uint64_t>& parity_check_words() const {
    return parity_check_words_;
  }

 protected:
  /// Takes the code's full-rank parity-check matrix and solves the
  /// preimage table from it (H x = e_j per syndrome bit); codes of at most
  /// 64 bits also get the word forms of both tables.
  explicit BinaryCode(Gf2Matrix parity_check);

 private:
  Gf2Matrix parity_check_;
  std::vector<support::BitVector> preimages_;
  std::vector<std::uint64_t> preimage_words_;
  std::vector<std::uint64_t> parity_check_words_;
};

/// Derives a full-rank parity-check matrix from a generator matrix by
/// computing the dual basis (null space of G).
Gf2Matrix parity_from_generator(const Gf2Matrix& generator);

}  // namespace pufatt::ecc

// Abstract binary linear block code interface.
//
// The helper-data scheme (helper_data.hpp) and the syndrome-generator
// hardware model (netlist/builder.hpp) are code-agnostic: they only need
// encode/decode and a parity-check matrix.  The concrete code is
// ReedMuller1 (reed_muller.hpp): the paper's "BCH[32,6,16]" is RM(1,5).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "ecc/gf2_matrix.hpp"
#include "support/bitvec.hpp"

namespace pufatt::ecc {

/// A GF(2)-linear map on machine words, applied a byte at a time: entry v
/// of table b is the XOR of the images of the set bits of v, read as input
/// bits 8b..8b+7.  One apply is one load and XOR per table; input bits
/// beyond the last column are ignored.
class Gf2WordMap {
 public:
  Gf2WordMap() = default;
  /// `columns[i]` is the image of input bit i (at most 64 columns).
  explicit Gf2WordMap(const std::vector<std::uint64_t>& columns);

  std::uint64_t operator()(std::uint64_t x) const {
    std::uint64_t y = 0;
    for (std::size_t b = 0; b < tables_.size(); ++b) {
      y ^= tables_[b][(x >> (8 * b)) & 0xFF];
    }
    return y;
  }

 private:
  std::vector<std::array<std::uint64_t, 256>> tables_;
};

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
  /// helper data's y0).  One table per code.
  const std::vector<support::BitVector>& syndrome_preimages() const {
    return preimages_;
  }

  /// Word form of syndrome() for codes of at most 64 bits: bit i of `word`
  /// is word bit i (bits at or above n() are ignored), bit j of the result
  /// is syndrome bit j.  Returns 0 for longer codes.
  std::uint64_t syndrome_word(std::uint64_t word) const {
    return syndrome_(word);
  }

  /// Word form of the preimage table for codes of at most 64 bits: the XOR
  /// of the preimages of the set bits of `syndrome` (bits at or above
  /// n() - k() are ignored), a word whose syndrome is `syndrome`.  Returns
  /// 0 for longer codes.
  std::uint64_t preimage_word(std::uint64_t syndrome) const {
    return preimage_(syndrome);
  }

 protected:
  /// Takes the code's full-rank parity-check matrix and solves the
  /// preimage table from it (H x = e_j per syndrome bit); codes of at most
  /// 64 bits also get the byte-table word maps of H and of the preimages.
  explicit BinaryCode(Gf2Matrix parity_check);

 private:
  Gf2Matrix parity_check_;
  std::vector<support::BitVector> preimages_;
  Gf2WordMap syndrome_;
  Gf2WordMap preimage_;
};

/// Derives a full-rank parity-check matrix from a generator matrix by
/// computing the dual basis (null space of G).
Gf2Matrix parity_from_generator(const Gf2Matrix& generator);

}  // namespace pufatt::ecc

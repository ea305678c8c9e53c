// Dynamic bit vector with the operations PUF work needs constantly:
// XOR, Hamming weight/distance, slicing, word import/export, hex formatting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pufatt::support {

/// A fixed-length sequence of bits (length chosen at construction).
/// Bit 0 is the least significant bit of word 0.
class BitVector {
 public:
  BitVector() = default;

  /// All-zero vector of `size` bits.
  explicit BitVector(std::size_t size);

  /// Vector of `size` bits initialized from the low bits of `value`.
  BitVector(std::size_t size, std::uint64_t value);

  /// Builds from a string of '0'/'1' characters, most significant bit first
  /// (so "1010" has bit 3 = 1, bit 1 = 1).  Throws std::invalid_argument on
  /// any other character.
  static BitVector from_string(const std::string& bits);

  /// Builds a `size`-bit vector with uniformly random contents drawn by
  /// calling `next_word()` for each 64-bit chunk.
  template <typename Rng>
  static BitVector random(std::size_t size, Rng& rng) {
    BitVector v(size);
    for (auto& word : v.words_) word = rng.next();
    v.mask_tail();
    return v;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  /// Number of set bits.
  std::size_t popcount() const;

  /// Hamming distance to another vector of the same size.
  /// Throws std::invalid_argument on size mismatch.
  std::size_t hamming_distance(const BitVector& other) const;

  /// Bitwise operations (sizes must match).
  BitVector& operator^=(const BitVector& other);
  BitVector& operator&=(const BitVector& other);
  BitVector& operator|=(const BitVector& other);
  friend BitVector operator^(BitVector a, const BitVector& b) { return a ^= b; }
  friend BitVector operator&(BitVector a, const BitVector& b) { return a &= b; }
  friend BitVector operator|(BitVector a, const BitVector& b) { return a |= b; }

  bool operator==(const BitVector& other) const = default;

  /// Returns bits [offset, offset+count) as a new vector.
  BitVector slice(std::size_t offset, std::size_t count) const;

  /// Concatenation: result holds *this in the low bits, `hi` above them.
  BitVector concat(const BitVector& hi) const;

  /// Low min(size, 64) bits as a word.
  std::uint64_t to_u64() const;

  /// Raw 64-bit words (little-endian bit order, tail bits zero).
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Word `i` (bits [64*i, 64*i+64)); reads past size() are zero-filled by
  /// construction, indexes past words().size() are an error.
  std::uint64_t word(std::size_t i) const { return words_[i]; }

  /// MSB-first '0'/'1' string.
  std::string to_string() const;

  /// Parity (XOR of all bits).
  bool parity() const { return popcount() % 2 != 0; }

 private:
  void mask_tail();
  void check_index(std::size_t i) const;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// In-place transpose of a 64x64 bit matrix held as 64 row words: bit c of
/// row r moves to bit r of row c.  This is the primitive behind bit-sliced
/// ("64 lanes per word") evaluation — packing 64 same-length BitVectors
/// into per-bit lane words is a sequence of these block transposes
/// instead of 4096 single-bit probes.
void transpose_64x64(std::uint64_t m[64]);

/// Packs one block of up to 64 equal-length BitVectors into bit-column
/// words: for every bit index i in [0, nbits), `out[i * stride]` receives
/// the word whose bit l is `vecs[l].get(i)`.  Lanes beyond `count` are
/// zero.  Every vector must have exactly `nbits` bits
/// (std::invalid_argument otherwise); `count` must be <= 64.
void pack_bit_columns(const BitVector* vecs, std::size_t count,
                      std::size_t nbits, std::uint64_t* out,
                      std::size_t stride);

}  // namespace pufatt::support

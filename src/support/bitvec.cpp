#include "support/bitvec.hpp"

#include <bit>
#include <stdexcept>

namespace pufatt::support {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t word_count(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}
}  // namespace

BitVector::BitVector(std::size_t size)
    : size_(size), words_(word_count(size), 0) {}

BitVector::BitVector(std::size_t size, std::uint64_t value)
    : size_(size), words_(word_count(size), 0) {
  if (!words_.empty()) {
    words_[0] = value;
    mask_tail();
  }
}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const char c = bits[i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitVector::from_string: bad character");
    }
    // bits[0] is the most significant bit.
    v.set(bits.size() - 1 - i, c == '1');
  }
  return v;
}

bool BitVector::get(std::size_t i) const {
  check_index(i);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVector::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVector::flip(std::size_t i) {
  check_index(i);
  words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

std::size_t BitVector::popcount() const {
  std::size_t total = 0;
  for (const auto word : words_) total += std::popcount(word);
  return total;
}

std::size_t BitVector::hamming_distance(const BitVector& other) const {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::hamming_distance: size mismatch");
  }
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    total += std::popcount(words_[w] ^ other.words_[w]);
  }
  return total;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::operator^=: size mismatch");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  return *this;
}

BitVector& BitVector::operator&=(const BitVector& other) {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::operator&=: size mismatch");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  if (size_ != other.size_) {
    throw std::invalid_argument("BitVector::operator|=: size mismatch");
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

BitVector BitVector::slice(std::size_t offset, std::size_t count) const {
  if (offset + count > size_) {
    throw std::out_of_range("BitVector::slice: out of range");
  }
  BitVector out(count);
  for (std::size_t i = 0; i < count; ++i) out.set(i, get(offset + i));
  return out;
}

BitVector BitVector::concat(const BitVector& hi) const {
  BitVector out(size_ + hi.size_);
  for (std::size_t i = 0; i < size_; ++i) out.set(i, get(i));
  for (std::size_t i = 0; i < hi.size_; ++i) out.set(size_ + i, hi.get(i));
  return out;
}

std::uint64_t BitVector::to_u64() const {
  return words_.empty() ? 0 : words_[0];
}

std::string BitVector::to_string() const {
  std::string out(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) out[size_ - 1 - i] = '1';
  }
  return out;
}

void BitVector::mask_tail() {
  const std::size_t tail = size_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ULL << tail) - 1;
  }
}

void BitVector::check_index(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitVector: index out of range");
}

void transpose_64x64(std::uint64_t m[64]) {
  // Hacker's Delight recursive block swap: at block size j, exchange the
  // high-j columns of the low-j rows with the low-j columns of the high-j
  // rows within every 2j x 2j tile.  6 stages x 32 swaps, all word ops.
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = (m[k] ^ (m[k | j] << j)) & ~mask;
      m[k] ^= t;
      m[k | j] ^= t >> j;
    }
  }
}

void pack_bit_columns(const BitVector* vecs, std::size_t count,
                      std::size_t nbits, std::uint64_t* out,
                      std::size_t stride) {
  if (count > 64) {
    throw std::invalid_argument("pack_bit_columns: more than 64 lanes");
  }
  for (std::size_t l = 0; l < count; ++l) {
    if (vecs[l].size() != nbits) {
      throw std::invalid_argument("pack_bit_columns: wrong vector width");
    }
  }
  std::uint64_t m[64];
  const std::size_t nblocks = (nbits + 63) / 64;
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    for (std::size_t l = 0; l < 64; ++l) {
      m[l] = l < count && blk < vecs[l].words().size() ? vecs[l].word(blk) : 0;
    }
    transpose_64x64(m);
    const std::size_t lim = std::min<std::size_t>(64, nbits - blk * 64);
    for (std::size_t k = 0; k < lim; ++k) {
      out[(blk * 64 + k) * stride] = m[k];
    }
  }
}

}  // namespace pufatt::support

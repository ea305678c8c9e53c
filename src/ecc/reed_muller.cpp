#include "ecc/reed_muller.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "support/simd.hpp"

namespace pufatt::ecc {

using support::BitVector;

namespace {

/// In-place fast Walsh-Hadamard transform of a[0..n), n a power of two.
template <typename T>
void fwht(T* a, std::size_t n) {
  for (std::size_t h = 1; h < n; h *= 2) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const T x = a[j];
        const T y = a[j + h];
        a[j] = x + y;
        a[j + h] = x - y;
      }
    }
  }
}

/// The ML decision on a transformed word: the index of the largest
/// |f[i]|, the first one on ties.  The index is the codeword's linear part,
/// the sign of f there its affine constant.
template <typename T>
std::size_t peak_index(const T* f, std::size_t n) {
  std::size_t best = 0;
  T best_mag = std::abs(f[0]);
  for (std::size_t i = 1; i < n; ++i) {
    if (std::abs(f[i]) > best_mag) {
      best_mag = std::abs(f[i]);
      best = i;
    }
  }
  return best;
}

/// fwht + peak_index for n = 32 in vector registers; f[0..32) receives the
/// transform.  Same stage order and operands as fwht, so every f[i] is
/// bit-identical.  A stage of half-width h below the vector width swaps
/// each lane j with its partner j ^ h: lanes with bit h clear take
/// x + partner = a[j] + a[j+h], the others partner - x = a[j-h] - a[j],
/// the scalar butterfly's operands.  Wider stages pair whole registers.
/// The peak is the lowest index whose |f| equals the maximum, which is
/// peak_index's first strict maximum; a NaN makes that equality unusable,
/// so such a word falls back to the scalar scan.
std::size_t fwht32_peak(const double* llr, double* f) {
  using simd::VecD;
  using simd::VecI;
  constexpr std::int64_t kW = simd::kWidth;
  constexpr std::size_t kRegs = 32 / simd::kWidth;
  static constexpr std::int64_t kIota[simd::kLanes] = {0, 1, 2, 3,
                                                       4, 5, 6, 7};
  VecI iota;
  std::memcpy(&iota, kIota, sizeof iota);
  VecD a[kRegs];
  std::memcpy(a, llr, sizeof a);
  for (std::int64_t h = 1; h < kW; h *= 2) {
    const VecI upper = (iota & h) != 0;
    for (VecD& x : a) {
      const VecD sw = __builtin_shuffle(x, iota ^ h);
      x = upper ? sw - x : x + sw;
    }
  }
  for (std::size_t h = 1; h < kRegs; h *= 2) {  // h registers apart
    for (std::size_t r = 0; r < kRegs; r += 2 * h) {
      for (std::size_t j = r; j < r + h; ++j) {
        const VecD x = a[j];
        const VecD y = a[j + h];
        a[j] = x + y;
        a[j + h] = x - y;
      }
    }
  }
  std::memcpy(f, a, sizeof a);
  // |f| by clearing the sign bit; the maximum, the NaN test and the first
  // peak index (as a double, exact) reduce across lanes by butterflies,
  // ending in every lane.
  VecD mag[kRegs];
  VecI nan{};
  for (std::size_t r = 0; r < kRegs; ++r) {
    mag[r] = reinterpret_cast<VecD>(reinterpret_cast<VecI>(a[r]) &
                                    std::numeric_limits<std::int64_t>::max());
    nan |= a[r] != a[r];
  }
  VecD peak = mag[0];
  for (std::size_t r = 1; r < kRegs; ++r) peak = peak < mag[r] ? mag[r] : peak;
  for (std::int64_t h = 1; h < kW; h *= 2) {
    const VecD other = __builtin_shuffle(peak, iota ^ h);
    peak = peak < other ? other : peak;
    nan |= __builtin_shuffle(nan, iota ^ h);
  }
  if (nan[0] != 0) return peak_index(f, 32);
  const VecD lane = __builtin_convertvector(iota, VecD);
  VecD first = lane + 32.0;
  for (std::size_t r = kRegs; r-- > 0;) {
    first = mag[r] == peak ? lane + static_cast<double>(r * kW) : first;
  }
  for (std::int64_t h = 1; h < kW; h *= 2) {
    const VecD other = __builtin_shuffle(first, iota ^ h);
    first = other < first ? other : first;
  }
  return static_cast<std::size_t>(first[0]);
}

Gf2Matrix rm_parity_check(unsigned m) {
  if (m < 2 || m > 16) {
    throw std::invalid_argument("ReedMuller1: m must be in [2,16]");
  }
  // Generator matrix rows: all-ones (u0) plus the m "coordinate" rows.
  const std::size_t n = std::size_t{1} << m;
  Gf2Matrix gen(m + 1, n);
  for (std::size_t i = 0; i < n; ++i) gen.set(0, i, true);
  for (unsigned b = 0; b < m; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      if ((i >> b) & 1u) gen.set(b + 1, i, true);
    }
  }
  return parity_from_generator(gen);
}

}  // namespace

ReedMuller1::ReedMuller1(unsigned m)
    : BinaryCode(rm_parity_check(m)), m_(m), n_(std::size_t{1} << m) {
  if (n_ <= 64) {
    // Word decoder table: the codeword with linear part `idx`, u0 = 0.
    linear_words_.resize(n_);
    for (std::size_t idx = 0; idx < n_; ++idx) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (std::popcount(idx & i) & 1) linear_words_[idx] |= 1ULL << i;
      }
    }
  }
}

BitVector ReedMuller1::encode(const BitVector& message) const {
  if (message.size() != k()) {
    throw std::invalid_argument("ReedMuller1::encode: wrong message length");
  }
  const bool u0 = message.get(0);
  std::uint32_t linear = 0;
  for (unsigned b = 0; b < m_; ++b) {
    if (message.get(b + 1)) linear |= (1u << b);
  }
  BitVector cw(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const bool dot =
        (std::popcount(linear & static_cast<std::uint32_t>(i)) & 1) != 0;
    cw.set(i, u0 != dot);
  }
  return cw;
}

BitVector ReedMuller1::message_at(std::size_t peak, bool negative) const {
  BitVector msg(k());
  msg.set(0, negative);
  for (unsigned b = 0; b < m_; ++b) msg.set(b + 1, ((peak >> b) & 1u) != 0);
  return msg;
}

BitVector ReedMuller1::decode_message(const BitVector& word) const {
  if (word.size() != n_) {
    throw std::invalid_argument("ReedMuller1::decode: wrong word length");
  }
  // +1 / -1 map, then Hadamard transform.
  std::vector<int> f(n_);
  for (std::size_t i = 0; i < n_; ++i) f[i] = word.get(i) ? -1 : 1;
  fwht(f.data(), n_);
  const std::size_t best = peak_index(f.data(), n_);
  return message_at(best, f[best] < 0);
}

std::optional<BitVector> ReedMuller1::decode_to_codeword(
    const BitVector& word) const {
  return encode(decode_message(word));
}

std::optional<BitVector> ReedMuller1::decode(const BitVector& word) const {
  return decode_message(word);
}

std::optional<BitVector> ReedMuller1::decode_soft_to_codeword(
    const std::vector<double>& llr) const {
  if (llr.size() != n_) {
    throw std::invalid_argument("ReedMuller1::decode_soft: wrong length");
  }
  if (n_ <= 64) return BitVector(n_, *decode_soft_word(llr.data()));
  // Wider than a machine word: the same transform and peak on a heap copy.
  std::vector<double> f = llr;
  fwht(f.data(), n_);
  const std::size_t best = peak_index(f.data(), n_);
  return encode(message_at(best, f[best] < 0.0));
}

std::optional<std::uint64_t> ReedMuller1::decode_soft_word(
    const double* llr) const {
  if (n_ > 64) {
    throw std::invalid_argument("ReedMuller1::decode_soft_word: m > 6");
  }
  double f[64] = {};  // positive = bit 0, as encoded codeword +1
  std::size_t best = 0;
  if (n_ == 32) {
    best = fwht32_peak(llr, f);
  } else {
    std::copy_n(llr, n_, f);
    fwht(f, n_);
    best = peak_index(f, n_);
  }
  const std::uint64_t all = n_ == 64 ? ~0ULL : (1ULL << n_) - 1;
  return f[best] < 0.0 ? linear_words_[best] ^ all : linear_words_[best];
}

int ReedMuller1::correlation_peak(const BitVector& word) const {
  std::vector<int> f(n_);
  for (std::size_t i = 0; i < n_; ++i) f[i] = word.get(i) ? -1 : 1;
  fwht(f.data(), n_);
  int best = 0;
  for (const auto v : f) best = std::max(best, std::abs(v));
  return best;
}

}  // namespace pufatt::ecc

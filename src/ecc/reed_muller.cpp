#include "ecc/reed_muller.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#if defined(__AVX512F__)
// GCC 12's AVX-512 headers seed unmasked results with _mm512_undefined_*,
// which -Wmaybe-uninitialized misreports at -O3 (GCC bug 105593).
#pragma GCC diagnostic push
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

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

#if defined(__AVX512F__)
/// One in-register butterfly stage with half-width h in {1, 2, 4}: `sw` is
/// `x` with each lane j swapped with its partner j ^ h, and the lanes of
/// `upper` (those with bit h set) take sw - x = a[j] - a[j+h] while the
/// others take x + sw = a[j] + a[j+h] — the scalar butterfly's operands.
inline __m512d butterfly(__m512d x, __m512d sw, __mmask8 upper) {
  return _mm512_mask_sub_pd(_mm512_add_pd(x, sw), upper, sw, x);
}

/// fwht + peak_index for n = 32 on four zmm registers; f[0..32) receives
/// the transform.  Same stage order and operands as fwht, so every f[i]
/// is bit-identical.  The peak is the lowest index whose |f| equals the
/// maximum, which is peak_index's first strict maximum; a NaN makes that
/// equality unusable, so such a word falls back to the scalar scan.
std::size_t fwht32_peak(const double* llr, double* f) {
  __m512d a[4];
  for (int r = 0; r < 4; ++r) {
    __m512d x = _mm512_loadu_pd(llr + 8 * r);
    x = butterfly(x, _mm512_permute_pd(x, 0x55), 0xAA);
    x = butterfly(x, _mm512_permutex_pd(x, 0x4E), 0xCC);
    x = butterfly(x, _mm512_shuffle_f64x2(x, x, 0x4E), 0xF0);
    a[r] = x;
  }
  for (const int h : {1, 2}) {  // h = 8 and 16 doubles: whole registers
    for (int r = 0; r < 4; r += 2 * h) {
      for (int j = r; j < r + h; ++j) {
        const __m512d x = a[j];
        const __m512d y = a[j + h];
        a[j] = _mm512_add_pd(x, y);
        a[j + h] = _mm512_sub_pd(x, y);
      }
    }
  }
  __m512d mag[4];
  __mmask8 nan = 0;
  for (int r = 0; r < 4; ++r) {
    _mm512_storeu_pd(f + 8 * r, a[r]);
    mag[r] = _mm512_abs_pd(a[r]);
    nan |= _mm512_cmp_pd_mask(a[r], a[r], _CMP_UNORD_Q);
  }
  if (nan != 0) return peak_index(f, 32);
  const __m512d peak = _mm512_set1_pd(_mm512_reduce_max_pd(_mm512_max_pd(
      _mm512_max_pd(mag[0], mag[1]), _mm512_max_pd(mag[2], mag[3]))));
  std::uint32_t at_peak = 0;
  for (int r = 0; r < 4; ++r) {
    at_peak |= static_cast<std::uint32_t>(
                   _mm512_cmp_pd_mask(mag[r], peak, _CMP_EQ_OQ))
               << (8 * r);
  }
  return static_cast<std::size_t>(std::countr_zero(at_peak));
}
#endif

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
#if defined(__AVX512F__)
  if (n_ == 32) {
    best = fwht32_peak(llr, f);
  } else
#endif
  {
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

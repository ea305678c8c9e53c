// Eight lanes as one value, for the vector kernels.
//
// The bit-sliced engine's time kernels (timingsim/bitslice.cpp), the
// RM(1,5) Hadamard transform (ecc/reed_muller.cpp), the lane noise fill
// (support/rng.cpp) and the arbiter sweep (timingsim/arbiter.cpp) are
// written once, over the types below (GCC vector extensions); this header
// is the only place that knows the target's vector ISA.  A vector is as
// wide as the target's registers: 64 bytes with AVX-512, 32 with AVX2, 16
// with SSE2, so an 8-lane block is one zmm, two ymm or four xmm
// operations.  GCC 12 does not split a wider vector into register-sized
// halves cleanly: it scalarizes through the stack (a 64-byte AND kernel
// built for AVX2 came to 316 instructions with 45 spills, against 93 with
// none at 32 bytes), and on SSE2 a 32-byte value used twice goes through
// memory.  GCC 12 has no generic gather, mask-to-bits or exact int64 to
// double conversion either, so those three pick their instructions here,
// as does bits-to-mask, one mask-register move on AVX-512.
//
// Every operation on Doubles is an exact IEEE selection, a bit operation
// or a single correctly rounded add, subtract or multiply, so a
// kernel yields the same doubles at every width and matches the scalar
// expression it vectorizes lane for lane.  The two exponentials are the
// exception: they approximate, and they only ever feed a Verdict, which
// decides a comparison from the approximation where its proven error
// bound allows and hands every other lane back to the exact scalar
// expression.
//
// Include only from translation units compiled with the kernel options
// (src/CMakeLists.txt) or with -ffp-contract=off (the tests).  Everything
// here has internal linkage, because two translation units built for
// different targets see different widths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
// GCC 12's AVX-512 headers seed unmasked results with _mm512_undefined_*,
// which -Wmaybe-uninitialized misreports at -O3 (GCC bug 105593); the
// intrinsics used below are the masked or undefined-free forms.
#pragma GCC diagnostic push
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace pufatt::simd {
namespace {

#if defined(__AVX512F__)
constexpr std::size_t kVectorBytes = 64;
#elif defined(__AVX2__)
constexpr std::size_t kVectorBytes = 32;
#else
constexpr std::size_t kVectorBytes = 16;
#endif

constexpr std::size_t kLanes = 8;  ///< lanes per block
constexpr std::size_t kWidth = kVectorBytes / sizeof(double);  ///< per vector
constexpr std::size_t kParts = kLanes / kWidth;  ///< vectors per block

using VecD = double __attribute__((vector_size(kVectorBytes)));
using VecI = std::int64_t __attribute__((vector_size(kVectorBytes)));
using VecU = std::uint64_t __attribute__((vector_size(kVectorBytes)));

/// Lane l of a block is element l % kWidth of vector l / kWidth.
struct Doubles {
  VecD v[kParts];
};

/// Eight 64-bit words, laid out like Doubles.
struct Words {
  VecU v[kParts];
};

/// Per-lane condition, stored complemented: all ones where it is false and
/// zero where it is true, which saves lanes_of a NOT.
struct Mask {
  VecI v[kParts];
};

inline Doubles splat(double x) {
  Doubles r{};
  // x - 0.0 is x for every x, -0.0 included, so this folds to a broadcast.
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = x - VecD{};
  return r;
}

inline Doubles load(const double* src) {
  Doubles r;
  std::memcpy(&r, src, sizeof r);
  return r;
}

/// The first n < kLanes lanes from `src`; the others read 0.
inline Doubles load(const double* src, std::size_t n) {
  Doubles r{};
  std::memcpy(&r, src, n * sizeof(double));
  return r;
}

inline void store(double* dst, const Doubles& x) {
  std::memcpy(dst, &x, sizeof x);
}

/// Writes the first n < kLanes lanes only.
inline void store(double* dst, const Doubles& x, std::size_t n) {
  std::memcpy(dst, &x, n * sizeof(double));
}

/// Lane l is true iff bit l of `bits` is set.  No integer compare, which
/// SSE2 lacks for 64-bit lanes: in each 32-bit half of lane l, (bits & b)
/// - b with b = 1 << l is 0 when the bit is set and negative when it is
/// clear, and the arithmetic shift spreads that sign over the half.
inline Mask lanes_of(std::uint8_t bits) {
  Mask r{};
#if defined(__AVX512DQ__)
  // One mask-register move: all ones in the lanes whose bit is clear.
  static_assert(kParts == 1);
  r.v[0] = reinterpret_cast<VecI>(
      _mm512_movm_epi64(static_cast<__mmask8>(~bits)));
#else
  using VecI32 = std::int32_t __attribute__((vector_size(kVectorBytes)));
  static constexpr std::int32_t kBit[2 * kLanes] = {
      1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64, 128, 128};
  const VecI32 all = VecI32{} + static_cast<std::int32_t>(bits);
  for (std::size_t p = 0; p < kParts; ++p) {
    VecI32 bit;
    std::memcpy(&bit, kBit + 2 * kWidth * p, sizeof bit);
    r.v[p] = reinterpret_cast<VecI>(((all & bit) - bit) >> 31);
  }
#endif
  return r;
}

/// Lane-wise m ? a : b, as bit operations.
inline Doubles select(const Mask& m, const Doubles& a, const Doubles& b) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    r.v[p] = reinterpret_cast<VecD>((reinterpret_cast<VecI>(b.v[p]) & m.v[p]) |
                                    (reinterpret_cast<VecI>(a.v[p]) & ~m.v[p]));
  }
  return r;
}

/// Lane-wise std::min(a, b): b where b < a, else a.
inline Doubles min(const Doubles& a, const Doubles& b) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    r.v[p] = b.v[p] < a.v[p] ? b.v[p] : a.v[p];
  }
  return r;
}

/// Lane-wise std::max(a, b): b where a < b, else a.
inline Doubles max(const Doubles& a, const Doubles& b) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    r.v[p] = a.v[p] < b.v[p] ? b.v[p] : a.v[p];
  }
  return r;
}

inline Doubles operator+(const Doubles& a, const Doubles& b) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] + b.v[p];
  return r;
}

inline Doubles operator-(const Doubles& a, const Doubles& b) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] - b.v[p];
  return r;
}

inline Doubles operator*(const Doubles& a, const Doubles& b) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] * b.v[p];
  return r;
}

/// Lane-wise -x: flips the sign bit, as the scalar unary minus does.
inline Doubles operator-(const Doubles& x) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = -x.v[p];
  return r;
}

/// Lane-wise std::abs(x): clears the sign bit.
inline Doubles abs(const Doubles& x) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    r.v[p] = reinterpret_cast<VecD>(reinterpret_cast<VecI>(x.v[p]) &
                                    (VecI{} + INT64_MAX));
  }
  return r;
}

/// Lane-wise a < b (false where either is NaN).
inline Mask less(const Doubles& a, const Doubles& b) {
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = ~(a.v[p] < b.v[p]);
  return r;
}

/// Lane-wise a <= b (false where either is NaN).
inline Mask less_equal(const Doubles& a, const Doubles& b) {
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = ~(a.v[p] <= b.v[p]);
  return r;
}

// Conditions combine as conditions; the complemented storage is internal.
inline Mask operator&(const Mask& a, const Mask& b) {
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] | b.v[p];
  return r;
}

/// Every lane `b`.
inline Mask all_lanes(bool b) {
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = VecI{} - (b ? 0 : 1);
  return r;
}

inline Mask operator^(const Mask& a, const Mask& b) {
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = ~(a.v[p] ^ b.v[p]);
  return r;
}

inline Mask operator~(const Mask& a) {
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = ~a.v[p];
  return r;
}

/// Bit l set iff lane l is true: the inverse of lanes_of.
inline std::uint8_t bits(const Mask& m) {
  unsigned clear = 0;  // lanes stored as all ones, i.e. false
  for (std::size_t p = 0; p < kParts; ++p) {
#if defined(__AVX512F__)
    const auto part = static_cast<unsigned>(_mm512_test_epi64_mask(
        reinterpret_cast<__m512i>(m.v[p]), reinterpret_cast<__m512i>(m.v[p])));
#elif defined(__AVX__)
    const auto part = static_cast<unsigned>(
        _mm256_movemask_pd(reinterpret_cast<__m256d>(m.v[p])));
#elif defined(__SSE2__)
    const auto part = static_cast<unsigned>(
        _mm_movemask_pd(reinterpret_cast<__m128d>(m.v[p])));
#else
    unsigned part = 0;
    for (std::size_t e = 0; e < kWidth; ++e) {
      part |= static_cast<unsigned>(m.v[p][e] != 0) << e;
    }
#endif
    clear |= part << (kWidth * p);
  }
  return static_cast<std::uint8_t>(~clear);
}

// ------------------------------------------------------------------ words

inline Words splat_word(std::uint64_t x) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = VecU{} + x;
  return r;
}

inline Words load(const std::uint64_t* src) {
  Words r;
  std::memcpy(&r, src, sizeof r);
  return r;
}

inline void store(std::uint64_t* dst, const Words& x) {
  std::memcpy(dst, &x, sizeof x);
}

inline Words operator+(const Words& a, const Words& b) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] + b.v[p];
  return r;
}

inline Words operator-(const Words& a, const Words& b) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] - b.v[p];
  return r;
}

inline Words operator^(const Words& a, const Words& b) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] ^ b.v[p];
  return r;
}

inline Words operator&(const Words& a, const Words& b) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] & b.v[p];
  return r;
}

inline Words operator<<(const Words& a, int k) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] << k;
  return r;
}

inline Words operator>>(const Words& a, int k) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) r.v[p] = a.v[p] >> k;
  return r;
}

/// std::rotl, 0 < k < 64.
inline Words rotl(const Words& a, int k) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    r.v[p] = (a.v[p] << k) | (a.v[p] >> (64 - k));
  }
  return r;
}

/// Lane-wise m ? a : b.
inline Words select(const Mask& m, const Words& a, const Words& b) {
  Words r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    const auto keep = reinterpret_cast<VecU>(m.v[p]);
    r.v[p] = (b.v[p] & keep) | (a.v[p] & ~keep);
  }
  return r;
}

/// Lane-wise x == 0.
inline Mask is_zero(const Words& x) {
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    r.v[p] = reinterpret_cast<VecI>(x.v[p] != 0);
  }
  return r;
}

/// The doubles whose bit patterns the words are.
inline Doubles as_doubles(const Words& x) {
  Doubles r;
  std::memcpy(&r, &x, sizeof r);
  return r;
}

inline Words as_words(const Doubles& x) {
  Words r;
  std::memcpy(&r, &x, sizeof r);
  return r;
}

/// static_cast<double>(x) for x < 2^53, where the conversion is exact.
/// Without AVX-512DQ there is no vector int64 conversion, so the two
/// halves go through the exponent field: (2^84 + hi * 2^32) - (2^84 + 2^52)
/// is exact, and adding 2^52 + lo rounds nothing below 2^53.
inline Doubles to_double(const Words& x) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) {
#if defined(__AVX512DQ__)
    r.v[p] = __builtin_convertvector(x.v[p], VecD);
#else
    const VecU hi = (x.v[p] >> 32) | 0x4530000000000000ULL;
    const VecU lo = (x.v[p] & 0xFFFFFFFFULL) | 0x4330000000000000ULL;
    r.v[p] = (reinterpret_cast<VecD>(hi) - (0x1.0p84 + 0x1.0p52)) +
             reinterpret_cast<VecD>(lo);
#endif
  }
  return r;
}

/// Lane-wise table[index]: a hardware gather with AVX-512 or AVX2, scalar
/// loads otherwise.
inline Doubles gather(const double* table, const Words& index) {
  Doubles r{};
  for (std::size_t p = 0; p < kParts; ++p) {
#if defined(__AVX512F__)
    r.v[p] = reinterpret_cast<VecD>(_mm512_mask_i64gather_pd(
        _mm512_setzero_pd(), 0xFF, reinterpret_cast<__m512i>(index.v[p]),
        table, 8));
#elif defined(__AVX2__)
    r.v[p] = reinterpret_cast<VecD>(_mm256_mask_i64gather_pd(
        _mm256_setzero_pd(), table, reinterpret_cast<__m256i>(index.v[p]),
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8));
#else
    for (std::size_t e = 0; e < kWidth; ++e) r.v[p][e] = table[index.v[p][e]];
#endif
  }
  return r;
}

// ------------------------------------------------- exact decisions from
//                                                    approximate math

/// A lane-wise comparison decided from an approximation: `yes` holds the
/// lanes where the exact comparison is certainly true; `unsure` the lanes
/// whose exact value lies too close to the threshold, or outside the
/// approximation's domain, to tell.  The caller decides the unsure lanes
/// with the exact scalar expression; every other lane not in `yes` is
/// certainly false.
struct Verdict {
  std::uint8_t yes = 0;
  std::uint8_t unsure = 0;
};

/// e^a by its Taylor polynomial of degree 9, evaluated in Estrin's form
/// (four dependent multiply-add levels instead of Horner's nine).  For
/// |a| <= kExpSmallDomain the Lagrange remainder is at most
/// e^0.75 * 0.75^10 / 10! < 3.3e-8.  Every intermediate is bounded by
/// sum_k |a|^k / k! <= e^0.75 and carries at most 21 roundings, each
/// propagated with a factor of at most e^0.75, so rounding and the rounded
/// coefficients add less than 22 * 2^-53 * e^1.5 < 2e-14: the result is
/// within kExpSmallError of e^a.  There is no range reduction; exp() below
/// covers wider arguments.
constexpr double kExpSmallDomain = 0.75;
constexpr double kExpSmallError = 3.4e-8;  ///< absolute, on the domain

inline Doubles exp_small(const Doubles& a) {
  // c_k = 1/k!, each the double nearest the rational.
  const auto c = [](double inv) { return splat(1.0 / inv); };
  const Doubles a2 = a * a;
  const Doubles a4 = a2 * a2;
  const Doubles q0 = c(1.0) + a;
  const Doubles q1 = c(2.0) + c(6.0) * a;
  const Doubles q2 = c(24.0) + c(120.0) * a;
  const Doubles q3 = c(720.0) + c(5040.0) * a;
  const Doubles q4 = c(40320.0) + c(362880.0) * a;
  const Doubles r0 = q0 + q1 * a2;
  const Doubles r1 = q2 + q3 * a2;
  return (r0 + r1 * a4) + q4 * (a4 * a4);
}

/// e^x for |x| <= kExpDomain, within relative error kExpError.  x = k ln2
/// + r with k = round(x / ln2), so |r| <= ln2/2 + 1e-13 < 0.35; k * kLn2Hi
/// is exact (|k| <= 1010, kLn2Hi has 32 significant bits), so r carries
/// only two roundings, below 2^-52 * 0.35 in all.  e^r comes from
/// exp_small's polynomial, whose remainder on |r| < 0.35 is below
/// e^0.35 * 0.35^10 / 10! < 1.1e-11, that is 1.6e-11 relative to
/// e^r >= e^-0.35, plus under 5e-15 of rounding; the scale by 2^k is exact
/// because e^x stays normal for |x| <= 700.
constexpr double kExpDomain = 700.0;
constexpr double kExpError = 2e-11;  ///< relative, on the domain

inline Doubles exp(const Doubles& x) {
  constexpr double kLog2e = 1.4426950408889634;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  constexpr double kShift = 0x1.8p52;  // rounds |v| < 2^51 to an integer
  const Doubles shifted = x * splat(kLog2e) + splat(kShift);
  const Doubles k = shifted - splat(kShift);
  const Doubles r = (x - k * splat(kLn2Hi)) - k * splat(kLn2Lo);
  // The integer k sits in the low bits of `shifted`; 2^k is its biased
  // exponent moved into place.
  const Words scale = (as_words(shifted) - as_words(splat(kShift)) +
                       splat_word(1023)) << 52;
  return exp_small(r) * as_doubles(scale);
}

/// The ziggurat wedge test f1 + u * (f0 - f1) < 1.0 (support/rng.cpp),
/// where f0 = e^a0, f1 = e^a1 and a1 - a0 = d is a constant of the layer:
/// with gap = e^d it is L = e^a0 * (gap - u * (gap - 1)) < 1.0, one
/// exponential.  For |a0| <= kExpSmallDomain, u in [0, 1) and gap in
/// [1, 2.08] (d <= 0.732 in every layer), gap - 1 is exact, the factor
/// beside e^a0 lies in [1, gap] with two roundings, and exp_small's error
/// enters multiplied by at most 2.08: this L is within 7.1e-8 of the exact
/// one.  The scalar test's L, from libm exponentials of arguments that
/// differ from a0 and a0 + d by a few roundings of squares below 12, is
/// within 1e-13 of it.  Both are far inside the bracket's half-width
/// kWedgeMargin; a lane within the margin of 1.0, or whose a0 leaves the
/// domain (or is NaN), is unsure.
constexpr double kWedgeMargin = 0x1.0p-20;

inline Verdict wedge_verdict(const Doubles& a0, const Doubles& gap,
                             const Doubles& u) {
  const Mask in = less_equal(abs(a0), splat(kExpSmallDomain));
  const Doubles l = exp_small(a0) * (gap - u * (gap - splat(1.0)));
  const Mask below = in & less(l, splat(1.0 - kWedgeMargin));
  const Mask above = in & less_equal(splat(1.0 + kWedgeMargin), l);
  const std::uint8_t yes = bits(below);
  return {yes, static_cast<std::uint8_t>(~(yes | bits(above)))};
}

/// The logistic arbiter test u < p = 1 / (1 + e^x) (timingsim/arbiter.cpp,
/// x = -delta / tau), for |x| <= kExpDomain and u in [0, 1), decided
/// without a division from A = u * (1 + e^x) against 1.  The scalar p
/// carries libm's exp (within 1 ulp) and two roundings, so it is within
/// 4 * 2^-53 relative of the true p.  A carries exp()'s kExpError, two
/// roundings, and a caller's x that may itself be a product rounded twice
/// (at most 1400 * 2^-53 absolute for |x| <= 700): under 2.1e-11
/// relative in all.  So A < 1 - kLogisticMargin puts u below the scalar p
/// and A >= 1 + kLogisticMargin puts it at or above.  A lane between the
/// two, or whose x leaves the domain (or is NaN), is unsure.
constexpr double kLogisticMargin = 0x1.0p-30;

inline Verdict logistic_verdict(const Doubles& u, const Doubles& x) {
  const Mask in = less_equal(abs(x), splat(kExpDomain));
  const Doubles a = u * (splat(1.0) + exp(x));
  const Mask below = in & less(a, splat(1.0 - kLogisticMargin));
  const Mask above = in & less_equal(splat(1.0 + kLogisticMargin), a);
  const std::uint8_t yes = bits(below);
  return {yes, static_cast<std::uint8_t>(~(yes | bits(above)))};
}

}  // namespace
}  // namespace pufatt::simd

// Eight lanes of doubles as one value, for the vector kernels.
//
// The bit-sliced engine's time kernels (timingsim/bitslice.cpp) and the
// RM(1,5) Hadamard transform (ecc/reed_muller.cpp) are written once, over
// the types below (GCC vector extensions); this header is the only place
// that knows the target's vector ISA.  A vector is as wide as the target's
// registers: 64 bytes with AVX-512, 32 with AVX2, 16 with SSE2, so an
// 8-lane block is one zmm, two ymm or four xmm operations.  GCC 12 does
// not split a wider vector into register-sized halves cleanly: it
// scalarizes through the stack (a 64-byte AND kernel built for AVX2 came
// to 316 instructions with 45 spills, against 93 with none at 32 bytes),
// and on SSE2 a 32-byte value used twice goes through memory.
//
// Every operation is an exact IEEE selection, a bit operation or a single
// add, so a kernel yields the same doubles at every width and matches the
// scalar expression it vectorizes lane for lane.
//
// Include only from translation units compiled with the kernel options
// (src/CMakeLists.txt).  Everything here has internal linkage, because two
// translation units built for different targets see different widths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

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

/// Lane l of a block is element l % kWidth of vector l / kWidth.
struct Doubles {
  VecD v[kParts];
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
  using VecI32 = std::int32_t __attribute__((vector_size(kVectorBytes)));
  static constexpr std::int32_t kBit[2 * kLanes] = {
      1, 1, 2, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64, 128, 128};
  const VecI32 all = VecI32{} + static_cast<std::int32_t>(bits);
  Mask r{};
  for (std::size_t p = 0; p < kParts; ++p) {
    VecI32 bit;
    std::memcpy(&bit, kBit + 2 * kWidth * p, sizeof bit);
    r.v[p] = reinterpret_cast<VecI>(((all & bit) - bit) >> 31);
  }
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

}  // namespace
}  // namespace pufatt::simd

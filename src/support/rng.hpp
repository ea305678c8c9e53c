// Deterministic, portable random number generation.
//
// All stochastic components of the simulator (process variation sampling,
// evaluation noise, arbiter metastability, protocol nonces) draw from these
// generators so that every experiment is reproducible from a single seed on
// any platform.  std:: distributions are deliberately avoided: their output
// is implementation-defined and would make cross-platform regression tests
// impossible.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace pufatt::support {

/// SplitMix64: used for seeding and for cheap stateless hashing of seeds.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next();

  /// One-shot stateless mix of a 64-bit value (useful for deriving
  /// independent sub-seeds from (seed, index) pairs).
  static std::uint64_t mix(std::uint64_t x);

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna).  Fast, high-quality, 256-bit state.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64,
  /// as recommended by the generator's authors.
  explicit Xoshiro256pp(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method
  /// simplified with rejection).
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Standard normal deviate via Box-Muller (deterministic across
  /// platforms; caches the second deviate).
  double gaussian();

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Standard normal deviate via the ziggurat method (Doornik's ZIGNOR
  /// layout, 128 layers): ~one next() plus a table compare per deviate —
  /// several times faster than gaussian(), which pays log/sqrt/sin/cos
  /// per pair.  Statistically exact, but a DIFFERENT stream from
  /// gaussian() (no cached second deviate, different draw counts), so the
  /// two samplers are not interchangeable mid-sequence; bulk noise fills
  /// (ChipInstance::sample_delays_batch) standardize on this one.
  double gaussian_fast();

  /// Lane-interleaved bulk fill: out[i*lanes + x] = mean + stddev * z,
  /// where z is generator rngs[x]'s i-th gaussian_fast() deviate, for
  /// i < n and x < lanes.  Each generator ends exactly where n calls of
  /// gaussian_fast() would leave it, so the fill and the scalar loop are
  /// the same stream, byte for byte.  Blocks of 8 lanes keep the generator
  /// and the ziggurat in vector registers (support/simd.hpp), the wedge
  /// draws included: their exponentials are approximated, and a decision
  /// the approximation's error bound cannot settle, like every tail draw,
  /// runs the scalar expression.
  static void gaussian_fill_lanes(Xoshiro256pp* rngs, std::size_t lanes,
                                  std::size_t n, double* out, double mean,
                                  double stddev);

  /// Lane-interleaved uniform() draws: out[i*lanes + x] is generator
  /// rngs[x]'s i-th uniform(), i < n, and each generator ends where n
  /// uniform() calls would leave it.  Blocks of 8 lanes step in vector
  /// registers.
  static void uniform_lanes(Xoshiro256pp* rngs, std::size_t lanes,
                            std::size_t n, double* out);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Derive an independent child generator (for per-object streams).
  Xoshiro256pp split();

 private:
  friend struct LaneGens;  // rng.cpp: eight generators in vector lanes

  /// The ziggurat's slow path, continuing a gaussian_fast() draw whose
  /// first word `bits` missed the fast path: tail, wedge and any redraws.
  double gaussian_fast_slow(std::uint64_t bits);

  std::array<std::uint64_t, 4> s_{};
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace pufatt::support

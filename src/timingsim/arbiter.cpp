#include "timingsim/arbiter.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "support/bitvec.hpp"
#include "support/simd.hpp"

namespace pufatt::timingsim {

double Arbiter::probability_one(double delta_ps) const {
  if (params_.meta_tau_ps <= 0.0) return delta_ps > 0.0 ? 1.0 : 0.0;
  // Logistic resolution curve centred at delta = 0.
  return 1.0 / (1.0 + std::exp(-delta_ps / params_.meta_tau_ps));
}

bool Arbiter::sample(double delta_ps, support::Xoshiro256pp& rng) const {
  return rng.bernoulli(probability_one(delta_ps));
}

void Arbiter::sample_lanes(const double* t0, const double* t1,
                           std::size_t lanes, std::size_t width,
                           const double* deadline,
                           support::Xoshiro256pp* rngs,
                           std::uint64_t* responses) const {
  using simd::Doubles;
  const std::size_t rwords = (width + 63) / 64;
  // The scalar decision of bit i of device x from its uniform() u.
  const auto decide = [&](std::size_t i, std::size_t x, double u) {
    const double a = t0[i * lanes + x];
    const double b = t1[i * lanes + x];
    const bool coin = deadline != nullptr && std::min(a, b) > *deadline;
    return u < (coin ? 0.5 : probability_one(b - a));
  };

  // A non-positive tau is the step function: every lane goes to the
  // scalar expression.  The vector's -delta/tau need not be the scalar's
  // quotient, only within the bracket's error budget (support/simd.hpp).
  const bool logistic = params_.meta_tau_ps > 0.0;
  const Doubles inv_tau = simd::splat(1.0 / params_.meta_tau_ps);
  constexpr std::size_t kRows = 32;  // uniforms drawn per refill
  alignas(64) double uniforms[kRows * simd::kLanes];
  std::size_t first = 0;
  for (; first + simd::kLanes <= lanes; first += simd::kLanes) {
    for (std::size_t base = 0; base < width; base += kRows) {
      const std::size_t rows = std::min(kRows, width - base);
      support::Xoshiro256pp::uniform_lanes(rngs + first, simd::kLanes, rows,
                                           uniforms);
      // Row r's decisions, bit x for lane x.
      alignas(8) std::uint8_t row_bits[kRows] = {};
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t i = base + r;
        const Doubles a = simd::load(t0 + i * lanes + first);
        const Doubles b = simd::load(t1 + i * lanes + first);
        const Doubles u = simd::load(uniforms + r * simd::kLanes);
        const simd::Verdict v =
            simd::logistic_verdict(u, -(b - a) * inv_tau);
        std::uint8_t one = v.yes;
        std::uint8_t unsure = logistic ? v.unsure : 0xFF;
        if (deadline != nullptr) {
          const std::uint8_t coin =
              simd::bits(simd::less(simd::splat(*deadline), simd::min(a, b)));
          const std::uint8_t heads =
              simd::bits(simd::less(u, simd::splat(0.5)));
          one = static_cast<std::uint8_t>((one & ~coin) | (heads & coin));
          unsure &= static_cast<std::uint8_t>(~coin);
        }
        for (unsigned m = unsure; m != 0; m &= m - 1) {
          const int x = std::countr_zero(m);
          const auto bit = static_cast<std::uint8_t>(1u << x);
          one = decide(i, first + x, uniforms[r * simd::kLanes + x])
                    ? one | bit
                    : one & ~bit;
        }
        row_bits[r] = one;
      }
      // Eight rows at a time, transposed into one byte per lane.
      for (std::size_t r = 0; r < rows; r += 8) {
        std::uint64_t m;
        std::memcpy(&m, row_bits + r, sizeof m);
        m = support::transpose_8x8(m);
        const std::size_t i = base + r;
        for (std::size_t x = 0; x < simd::kLanes; ++x) {
          responses[(first + x) * rwords + i / 64] |= ((m >> (8 * x)) & 0xFF)
                                                      << (i % 64);
        }
      }
    }
  }
  // Lane-major scalar loop for the lanes after the last whole block.
  for (std::size_t x = first; x < lanes; ++x) {
    for (std::size_t i = 0; i < width; ++i) {
      responses[x * rwords + i / 64] |=
          static_cast<std::uint64_t>(decide(i, x, rngs[x].uniform()))
          << (i % 64);
    }
  }
}

}  // namespace pufatt::timingsim

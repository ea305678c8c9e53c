#include "support/rng.hpp"

#include <bit>
#include <cmath>

#if defined(__AVX512F__) && defined(__AVX512DQ__)
// GCC 12's AVX-512 headers seed unmasked results with _mm512_undefined_*,
// which -Wmaybe-uninitialized misreports at -O3 (GCC bug 105593).
#pragma GCC diagnostic push
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace pufatt::support {

namespace {

// Ziggurat layout for the standard normal (Doornik, "An improved ziggurat
// method to generate normal random samples", 2005): 128 layers of equal
// area kZigV under exp(-x^2/2), tail cut at kZigR.  Built once at load
// from the same libm the rest of the generator suite already relies on.
constexpr int kZigLayers = 128;
constexpr double kZigR = 3.442619855899;
constexpr double kZigV = 9.91256303526217e-3;

struct ZigTables {
  double x[kZigLayers + 1];  ///< layer right edges; x[0] spans the base box
  double ratio[kZigLayers];  ///< x[i+1]/x[i]: the rejection-free bound
  ZigTables() {
    x[0] = kZigV / std::exp(-0.5 * kZigR * kZigR);
    x[1] = kZigR;
    x[kZigLayers] = 0.0;
    for (int i = 2; i < kZigLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(kZigV / x[i - 1] +
                                       std::exp(-0.5 * x[i - 1] * x[i - 1])));
    }
    for (int i = 0; i < kZigLayers; ++i) ratio[i] = x[i + 1] / x[i];
  }
};
const ZigTables kZig;

// One next() yields both the layer index (low 7 bits) and the signed
// position u in [-1, 1) (top 53 bits) — disjoint bit ranges, so the two
// are independent.
inline int zig_layer(std::uint64_t bits) {
  return static_cast<int>(bits & (kZigLayers - 1));
}
inline double zig_u(std::uint64_t bits) {
  return 2.0 * (static_cast<double>(bits >> 11) * 0x1.0p-53) - 1.0;
}

// The ziggurat's fast path (~97.5% of draws): the point lies inside its
// layer's rejection-free box, so z = u * x[layer] with no further draw.
inline bool zig_fast(std::uint64_t bits, double& z) {
  const int layer = zig_layer(bits);
  const double u = zig_u(bits);
  if (std::abs(u) < kZig.ratio[layer]) {
    z = u * kZig.x[layer];
    return true;
  }
  return false;
}

}  // namespace

std::uint64_t SplitMix64::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix(state_);
}

std::uint64_t SplitMix64::mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // An all-zero state is a fixed point of xoshiro; SplitMix64 cannot emit
  // four consecutive zeros, so no further check is needed.
}

std::uint64_t Xoshiro256pp::next() {
  const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

double Xoshiro256pp::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Xoshiro256pp::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Xoshiro256pp::uniform_u64(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Rejection sampling on the top bits: unbiased and portable.
  const std::uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Xoshiro256pp::gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 6.283185307179586476925286766559 * u2;
  cached_gaussian_ = radius * std::sin(angle);
  have_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Xoshiro256pp::gaussian(double mean, double stddev) {
  return mean + stddev * gaussian();
}

double Xoshiro256pp::gaussian_fast() {
  const std::uint64_t bits = next();
  double z;
  return zig_fast(bits, z) ? z : gaussian_fast_slow(bits);
}

double Xoshiro256pp::gaussian_fast_slow(std::uint64_t bits) {
  for (;;) {
    const int layer = zig_layer(bits);
    const double u = zig_u(bits);
    if (layer == 0) {
      // Tail beyond kZigR (Marsaglia's exponential-majorant method).
      double tx;
      double ty;
      do {
        double u1 = 0.0;
        do { u1 = uniform(); } while (u1 <= 0.0);
        double u2 = 0.0;
        do { u2 = uniform(); } while (u2 <= 0.0);
        tx = std::log(u1) / kZigR;
        ty = std::log(u2);
      } while (-2.0 * ty < tx * tx);
      return u < 0.0 ? tx - kZigR : kZigR - tx;
    }
    // Wedge between layers: accept against the true density gap.
    const double val = u * kZig.x[layer];
    const double f0 =
        std::exp(-0.5 * (kZig.x[layer] * kZig.x[layer] - val * val));
    const double f1 =
        std::exp(-0.5 * (kZig.x[layer + 1] * kZig.x[layer + 1] - val * val));
    if (f1 + uniform() * (f0 - f1) < 1.0) return val;
    // Rejected: a fresh draw, fast path first.
    bits = next();
    double z;
    if (zig_fast(bits, z)) return z;
  }
}

void Xoshiro256pp::gaussian_fill_lanes(Xoshiro256pp* rngs, std::size_t lanes,
                                       std::size_t n, double* out,
                                       double mean, double stddev) {
  if (n == 0) return;
  std::size_t first = 0;
#if defined(__AVX512F__) && defined(__AVX512DQ__)
  // Blocks of 8 lanes: state word k of the block's generators lives in
  // zmm sk, one step draws all 8 lanes' next(), and the fast path runs on
  // the vector.  A lane that misses it (~2.8% of draws) hands its state
  // to its generator, finishes the deviate with the scalar slow path, and
  // the advanced state goes back into its vector lane.
  const __m512d vmean = _mm512_set1_pd(mean);
  const __m512d vstddev = _mm512_set1_pd(stddev);
  const __m512d two = _mm512_set1_pd(2.0);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d ulp53 = _mm512_set1_pd(0x1.0p-53);
  const __m512i layer_mask = _mm512_set1_epi64(kZigLayers - 1);
  for (; first + 8 <= lanes; first += 8) {
    Xoshiro256pp* block = rngs + first;
    alignas(64) std::uint64_t state[4][8];
    alignas(64) std::uint64_t drawn[8];
    for (int k = 0; k < 4; ++k) {
      for (int x = 0; x < 8; ++x) state[k][x] = block[x].s_[k];
    }
    __m512i s0 = _mm512_load_si512(state[0]);
    __m512i s1 = _mm512_load_si512(state[1]);
    __m512i s2 = _mm512_load_si512(state[2]);
    __m512i s3 = _mm512_load_si512(state[3]);
    double* row = out + first;
    for (std::size_t i = 0; i < n; ++i, row += lanes) {
      // xoshiro256++ next(), eight lanes at once.
      const __m512i bits = _mm512_add_epi64(
          _mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
      const __m512i t = _mm512_slli_epi64(s1, 17);
      s2 = _mm512_xor_si512(s2, s0);
      s3 = _mm512_xor_si512(s3, s1);
      s1 = _mm512_xor_si512(s1, s2);
      s0 = _mm512_xor_si512(s0, s3);
      s2 = _mm512_xor_si512(s2, t);
      s3 = _mm512_rol_epi64(s3, 45);
      // zig_fast() on the vector: the same IEEE operations in the same
      // order, so an accepted lane's z is the scalar z bit for bit.
      const __m512i layer = _mm512_and_si512(bits, layer_mask);
      const __m512d u = _mm512_sub_pd(
          _mm512_mul_pd(two, _mm512_mul_pd(_mm512_cvtepu64_pd(
                                               _mm512_srli_epi64(bits, 11)),
                                           ulp53)),
          one);
      const __m512d ratio = _mm512_i64gather_pd(layer, kZig.ratio, 8);
      const __m512d edge = _mm512_i64gather_pd(layer, kZig.x, 8);
      const __mmask8 fast =
          _mm512_cmp_pd_mask(_mm512_abs_pd(u), ratio, _CMP_LT_OQ);
      const __m512d z = _mm512_mul_pd(u, edge);
      _mm512_storeu_pd(row, _mm512_add_pd(vmean, _mm512_mul_pd(vstddev, z)));
      if (fast == 0xFF) continue;
      _mm512_store_si512(state[0], s0);
      _mm512_store_si512(state[1], s1);
      _mm512_store_si512(state[2], s2);
      _mm512_store_si512(state[3], s3);
      _mm512_store_si512(drawn, bits);
      for (unsigned slow = ~static_cast<unsigned>(fast) & 0xFFu; slow != 0;
           slow &= slow - 1) {
        const int x = std::countr_zero(slow);
        Xoshiro256pp& rng = block[x];
        for (int k = 0; k < 4; ++k) rng.s_[k] = state[k][x];
        row[x] = mean + stddev * rng.gaussian_fast_slow(drawn[x]);
        const auto lane = static_cast<__mmask8>(1u << x);
        const auto word = [&](int k) {
          return static_cast<long long>(rng.s_[k]);
        };
        s0 = _mm512_mask_set1_epi64(s0, lane, word(0));
        s1 = _mm512_mask_set1_epi64(s1, lane, word(1));
        s2 = _mm512_mask_set1_epi64(s2, lane, word(2));
        s3 = _mm512_mask_set1_epi64(s3, lane, word(3));
      }
    }
    _mm512_store_si512(state[0], s0);
    _mm512_store_si512(state[1], s1);
    _mm512_store_si512(state[2], s2);
    _mm512_store_si512(state[3], s3);
    for (int k = 0; k < 4; ++k) {
      for (int x = 0; x < 8; ++x) block[x].s_[k] = state[k][x];
    }
  }
#endif
  // Lane-major scalar loop: the tail lanes of a vector build, every lane
  // of a portable one.
  for (std::size_t x = first; x < lanes; ++x) {
    Xoshiro256pp& rng = rngs[x];
    double* column = out + x;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bits = rng.next();
      double z;
      if (!zig_fast(bits, z)) z = rng.gaussian_fast_slow(bits);
      column[i * lanes] = mean + stddev * z;
    }
  }
}

bool Xoshiro256pp::bernoulli(double p) { return uniform() < p; }

Xoshiro256pp Xoshiro256pp::split() { return Xoshiro256pp(next()); }

}  // namespace pufatt::support

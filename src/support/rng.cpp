#include "support/rng.hpp"

#include <bit>
#include <cmath>

#include "support/simd.hpp"

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
  /// e^((x[i]^2 - x[i+1]^2) / 2): a layer-i wedge's f1 / f0 (below).
  double gap[kZigLayers];
  ZigTables() {
    x[0] = kZigV / std::exp(-0.5 * kZigR * kZigR);
    x[1] = kZigR;
    x[kZigLayers] = 0.0;
    for (int i = 2; i < kZigLayers; ++i) {
      x[i] = std::sqrt(-2.0 * std::log(kZigV / x[i - 1] +
                                       std::exp(-0.5 * x[i - 1] * x[i - 1])));
    }
    for (int i = 0; i < kZigLayers; ++i) {
      ratio[i] = x[i + 1] / x[i];
      gap[i] = std::exp(0.5 * (x[i] * x[i] - x[i + 1] * x[i + 1]));
    }
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

// The wedge test of a layer >= 1 point val = u * x[layer] outside the box:
// accept against the true density gap, f1 + U * (f0 - f1) < 1.0 with
// f0 = e^a0 and f1 = e^a1, a0 and a1 wedge_arg of x[layer] and
// x[layer + 1].  The lane fill decides with this expression every lane its
// vector bracket cannot.
inline double wedge_arg(double edge, double val) {
  return -0.5 * (edge * edge - val * val);
}
inline bool wedge_accepts(int layer, double val, double uniform) {
  const double f0 = std::exp(wedge_arg(kZig.x[layer], val));
  const double f1 = std::exp(wedge_arg(kZig.x[layer + 1], val));
  return f1 + uniform * (f0 - f1) < 1.0;
}

// ----------------------------------------------------------- lane blocks

using simd::Doubles;
using simd::Mask;
using simd::Words;

inline Doubles wedge_arg(const Doubles& edge, const Doubles& val) {
  return simd::splat(-0.5) * (edge * edge - val * val);
}

/// uniform() of each lane's word: (bits >> 11) * 2^-53, exact.
inline Doubles lane_uniform(const Words& bits) {
  return simd::to_double(bits >> 11) * simd::splat(0x1.0p-53);
}

/// One ziggurat draw per lane, as zig_layer/zig_u/zig_fast compute it:
/// the same IEEE operations in the same order, so every z of a fast lane
/// is the scalar z bit for bit, and `z` is the wedge's val in the others.
struct ZigDraw {
  Words bits;
  Doubles edge;  ///< x[layer]
  Doubles z;     ///< u * x[layer]
  Mask fast;     ///< |u| < ratio[layer]
};

inline ZigDraw zig_draw(const Words& bits) {
  const Words layer = bits & simd::splat_word(kZigLayers - 1);
  const Doubles u =
      simd::splat(2.0) * lane_uniform(bits) - simd::splat(1.0);
  ZigDraw d;
  d.bits = bits;
  d.edge = simd::gather(kZig.x, layer);
  d.z = u * d.edge;
  d.fast = simd::less(simd::abs(u), simd::gather(kZig.ratio, layer));
  return d;
}

}  // namespace

/// Eight generators as four state vectors, word k of generator l in lane l
/// of s[k]: one step() is every generator's next().
struct LaneGens {
  Words s[4];

  static LaneGens load(const Xoshiro256pp* block) {
    alignas(64) std::uint64_t words[4][simd::kLanes];
    for (int k = 0; k < 4; ++k) {
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        words[k][l] = block[l].s_[k];
      }
    }
    LaneGens g;
    for (int k = 0; k < 4; ++k) g.s[k] = simd::load(words[k]);
    return g;
  }

  void store(Xoshiro256pp* block) const {
    alignas(64) std::uint64_t words[4][simd::kLanes];
    for (int k = 0; k < 4; ++k) simd::store(words[k], s[k]);
    for (int k = 0; k < 4; ++k) {
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        block[l].s_[k] = words[k][l];
      }
    }
  }

  Words step() {
    const Words result = simd::rotl(s[0] + s[3], 23) + s[0];
    const Words t = s[1] << 17;
    s[2] = s[2] ^ s[0];
    s[3] = s[3] ^ s[1];
    s[1] = s[1] ^ s[2];
    s[0] = s[0] ^ s[3];
    s[2] = s[2] ^ t;
    s[3] = simd::rotl(s[3], 45);
    return result;
  }

  /// next() for the lanes in `live` only; the other lanes keep their state
  /// (their word of the result is meaningless).
  Words step(const Mask& live) {
    LaneGens moved = *this;
    const Words result = moved.step();
    for (int k = 0; k < 4; ++k) s[k] = simd::select(live, moved.s[k], s[k]);
    return result;
  }
};

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
    // Wedge between layers.
    const double val = u * kZig.x[layer];
    if (wedge_accepts(layer, val, uniform())) return val;
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
  for (; first + simd::kLanes <= lanes; first += simd::kLanes) {
    // Blocks of 8 lanes: one step draws every lane's next(), the fast path
    // runs on the vector, and so do the wedge draws of the lanes that miss
    // it (~2.7% of draws): a masked step draws their uniform(), the
    // bracket decides nearly all of them, and a rejected lane redraws with
    // another masked step.  Only tail draws (layer 0, ~0.06%) and the
    // wedge decisions the bracket leaves unsure go through the scalar code.
    Xoshiro256pp* const block = rngs + first;
    LaneGens gen = LaneGens::load(block);
    double* row = out + first;
    for (std::size_t i = 0; i < n; ++i, row += lanes) {
      ZigDraw d = zig_draw(gen.step());
      std::uint8_t pending = static_cast<std::uint8_t>(~simd::bits(d.fast));
      while (pending != 0) {
        const Words layer = d.bits & simd::splat_word(kZigLayers - 1);
        // Tail lanes finish with the scalar slow path, their state moved
        // through their generator and back.
        if (const std::uint8_t tail =
                pending & simd::bits(simd::is_zero(layer))) {
          gen.store(block);
          alignas(64) std::uint64_t words[simd::kLanes];
          alignas(64) double z[simd::kLanes];
          simd::store(words, d.bits);
          simd::store(z, d.z);
          for (unsigned t = tail; t != 0; t &= t - 1) {
            const int x = std::countr_zero(t);
            z[x] = block[x].gaussian_fast_slow(words[x]);
          }
          gen = LaneGens::load(block);
          d.z = simd::load(z);
          pending &= static_cast<std::uint8_t>(~tail);
          if (pending == 0) break;
        }
        // The wedge: every pending lane's uniform(), then the test.
        const Doubles uniform =
            lane_uniform(gen.step(simd::lanes_of(pending)));
        const simd::Verdict v = simd::wedge_verdict(
            wedge_arg(d.edge, d.z), simd::gather(kZig.gap, layer), uniform);
        std::uint8_t accept = v.yes;
        if (const std::uint8_t unsure = v.unsure & pending) {
          alignas(64) std::uint64_t words[simd::kLanes];
          alignas(64) double val[simd::kLanes], u[simd::kLanes];
          simd::store(words, d.bits);
          simd::store(val, d.z);
          simd::store(u, uniform);
          for (unsigned t = unsure; t != 0; t &= t - 1) {
            const int x = std::countr_zero(t);
            if (wedge_accepts(zig_layer(words[x]), val[x], u[x])) {
              accept |= 1u << x;
            }
          }
        }
        // An accepted lane keeps z = val; a rejected one draws afresh.
        pending &= static_cast<std::uint8_t>(~accept);
        if (pending == 0) break;
        const Mask redo = simd::lanes_of(pending);
        const ZigDraw redraw = zig_draw(gen.step(redo));
        d.bits = simd::select(redo, redraw.bits, d.bits);
        d.edge = simd::select(redo, redraw.edge, d.edge);
        d.z = simd::select(redo, redraw.z, d.z);
        pending &= static_cast<std::uint8_t>(~simd::bits(redraw.fast));
      }
      simd::store(row, simd::splat(mean) + simd::splat(stddev) * d.z);
    }
    gen.store(block);
  }
  // Lane-major scalar loop for the lanes after the last whole block.
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

void Xoshiro256pp::uniform_lanes(Xoshiro256pp* rngs, std::size_t lanes,
                                 std::size_t n, double* out) {
  if (n == 0) return;
  std::size_t first = 0;
  for (; first + simd::kLanes <= lanes; first += simd::kLanes) {
    LaneGens gen = LaneGens::load(rngs + first);
    double* row = out + first;
    for (std::size_t i = 0; i < n; ++i, row += lanes) {
      simd::store(row, lane_uniform(gen.step()));
    }
    gen.store(rngs + first);
  }
  for (std::size_t x = first; x < lanes; ++x) {
    for (std::size_t i = 0; i < n; ++i) out[i * lanes + x] = rngs[x].uniform();
  }
}

bool Xoshiro256pp::bernoulli(double p) { return uniform() < p; }

Xoshiro256pp Xoshiro256pp::split() { return Xoshiro256pp(next()); }

}  // namespace pufatt::support

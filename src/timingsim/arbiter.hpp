// Arbiter (race-resolution) model with metastability.
//
// A physical arbiter is a latch that records which of two transitions
// arrived first.  When the arrival gap falls inside the latch's resolution
// window the output is effectively random.  We model the decision as a
// logistic function of the time difference — the standard soft model for
// arbiter PUFs — which reproduces the paper's finding that "the main factor
// affecting the intra-chip HD is arbiter metastability".
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

namespace pufatt::timingsim {

struct ArbiterParams {
  /// Resolution time constant in picoseconds: the width of the region where
  /// the outcome is noticeably random.  Larger tau = noisier arbiter.
  double meta_tau_ps = 1.0;
};

class Arbiter {
 public:
  explicit Arbiter(const ArbiterParams& params = {}) : params_(params) {}

  /// Probability that the arbiter outputs 1 given delta = t_b - t_a
  /// (output 1 means "signal A settled first", matching the paper's
  /// convention that the response bit reflects which ALU won the race).
  double probability_one(double delta_ps) const;

  /// Samples the arbiter decision.
  bool sample(double delta_ps, support::Xoshiro256pp& rng) const;

  /// The decisions of `width` arbiters in each of `lanes` devices, every
  /// one as sample(t1 - t0, rngs[x]) takes it, or as rngs[x].bernoulli(0.5)
  /// when `deadline` is given and neither transition reached the arbiter
  /// by it (min(t0, t1) > *deadline, the setup-violation coin).  Race
  /// times are rows of lanes: t0[i*lanes + x] and t1[i*lanes + x] are
  /// device x's times at arbiter i.  Each decision draws one uniform(), bit
  /// order within a lane, so every generator ends where the scalar loop
  /// leaves it and every bit equals its decision.  Bit i of device x is
  /// OR-ed into responses[x * ceil(width/64) + i/64].
  ///
  /// Blocks of 8 lanes draw their uniforms with Xoshiro256pp::uniform_lanes
  /// and decide in vector registers: the logistic with an approximate
  /// exponential (support/simd.hpp) whose error bound brackets p, and the
  /// few decisions the bracket cannot settle, or whose -delta/tau is not
  /// finite, through probability_one itself.
  void sample_lanes(const double* t0, const double* t1, std::size_t lanes,
                    std::size_t width, const double* deadline,
                    support::Xoshiro256pp* rngs,
                    std::uint64_t* responses) const;

  /// Deterministic (noise-free) decision: the sign of delta.  Used by the
  /// verifier's emulator, which has no metastability.
  static bool decide(double delta_ps) { return delta_ps > 0.0; }

  const ArbiterParams& params() const { return params_; }

 private:
  ArbiterParams params_;
};

}  // namespace pufatt::timingsim

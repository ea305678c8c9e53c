// Bit-by-bit reference implementations of the PUF() pipeline stages on
// both protocol sides, for differential tests of the word kernels.
//
// Each function restates a stage from its definition on BitVectors and
// std::vectors, independent of the kernels it checks: the obfuscation
// network's fold/rotate (paper Section 2 plus the kHardened matching),
// syndrome helper-data soft reconstruction with a first-order Reed-Muller
// fast-Hadamard decoder, the prover's PUF() call composed from
// AluPuf::eval_batch lanes, BitVector syndromes and that obfuscation, the
// per-gate noise draws of the batched delay sampling, and eval_batch itself
// as one scalar timing run per lane.  The
// floating-point operation order of the decoder matches the production
// transform, so results compare with ==.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "alupuf/obfuscation.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/linear_code.hpp"
#include "support/bitvec.hpp"
#include "support/rng.hpp"
#include "timingsim/arbiter.hpp"
#include "timingsim/timing_sim.hpp"
#include "variation/chip.hpp"

namespace pufatt::testref {

using support::BitVector;

/// Phase-1 pairs of an ObfuscationNetwork: fold bit k = y[p] XOR y[q].
inline std::vector<std::pair<std::size_t, std::size_t>> obfuscation_pairs(
    std::size_t two_n, alupuf::ObfuscationNetwork::Pairing pairing) {
  const std::size_t n = two_n / 2;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  if (pairing == alupuf::ObfuscationNetwork::Pairing::kPaper) {
    for (std::size_t i = 0; i < n; ++i) pairs.emplace_back(i, i + n);
    return pairs;
  }
  // Fisher-Yates shuffle from the network's fixed seed.
  std::vector<std::size_t> perm(two_n);
  std::iota(perm.begin(), perm.end(), 0);
  support::Xoshiro256pp rng(0x0BF5'CA7E0ULL + two_n);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_u64(i)]);
  }
  for (std::size_t k = 0; k < n; ++k) pairs.emplace_back(perm[2 * k], perm[2 * k + 1]);
  return pairs;
}

inline BitVector reference_fold(const BitVector& response,
                                alupuf::ObfuscationNetwork::Pairing pairing) {
  const auto pairs = obfuscation_pairs(response.size(), pairing);
  BitVector folded(pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    folded.set(k, response.get(pairs[k].first) != response.get(pairs[k].second));
  }
  return folded;
}

/// z = XOR_j rotl(fold(y_2j) || fold(y_2j+1), kHardened ? 5j : 0).
inline BitVector reference_obfuscate(
    const std::array<BitVector, 8>& responses,
    alupuf::ObfuscationNetwork::Pairing pairing) {
  const std::size_t two_n = responses[0].size();
  BitVector z(two_n);
  for (std::size_t j = 0; j < 4; ++j) {
    const BitVector b = reference_fold(responses[2 * j], pairing)
                            .concat(reference_fold(responses[2 * j + 1], pairing));
    const std::size_t k =
        pairing == alupuf::ObfuscationNetwork::Pairing::kHardened ? 5 * j : 0;
    BitVector rotated(two_n);
    for (std::size_t i = 0; i < two_n; ++i) rotated.set((i + k) % two_n, b.get(i));
    z ^= rotated;
  }
  return z;
}

/// Soft ML decoding of RM(1, m) on a std::vector: Hadamard transform,
/// first maximum of |f|, codeword from code.encode().
inline BitVector reference_rm_decode_soft(const ecc::BinaryCode& code,
                                          std::vector<double> f) {
  const std::size_t n = f.size();
  for (std::size_t h = 1; h < n; h *= 2) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = i; j < i + h; ++j) {
        const double x = f[j];
        const double y = f[j + h];
        f[j] = x + y;
        f[j + h] = x - y;
      }
    }
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (std::abs(f[i]) > std::abs(f[best])) best = i;
  }
  BitVector message(code.k());
  message.set(0, f[best] < 0.0);
  for (std::size_t b = 0; b + 1 < code.k(); ++b) {
    message.set(b + 1, ((best >> b) & 1u) != 0);
  }
  return code.encode(message);
}

/// Helper-data soft reconstruction for an RM(1, m) code: y0 is the XOR of
/// the parity-check preimages of the helper's set bits, the reference
/// LLRs are flipped where y0 is 1, and the decoded codeword is XORed back.
inline BitVector reference_reproduce_soft(const ecc::BinaryCode& code,
                                          const std::vector<double>& llr,
                                          const BitVector& helper) {
  const auto& h = code.parity_check();
  BitVector y0(code.n());
  for (std::size_t j = 0; j < h.rows(); ++j) {
    if (!helper.get(j)) continue;
    BitVector unit(h.rows());
    unit.set(j, true);
    y0 ^= *h.solve(unit);
  }
  std::vector<double> flipped = llr;
  for (std::size_t i = 0; i < flipped.size(); ++i) {
    if (y0.get(i)) flipped[i] = -flipped[i];
  }
  return reference_rm_decode_soft(code, flipped) ^ y0;
}

/// The prover's PUF() call on 8 raw challenge words: one 8-lane
/// AluPuf::eval_batch (its RNG contract: one `rng.next()`), a BitVector
/// syndrome per lane, and the bit-by-bit kHardened obfuscation.
struct ReferenceCall {
  BitVector z;
  std::array<BitVector, 8> helpers;
};

inline ReferenceCall reference_device_query(
    const alupuf::AluPuf& puf, const ecc::BinaryCode& code,
    const std::array<std::uint64_t, 8>& challenges,
    const variation::Environment& env, support::Xoshiro256pp& rng,
    const alupuf::ClockConstraint* clock) {
  std::array<BitVector, 8> lanes;
  for (std::size_t r = 0; r < 8; ++r) {
    lanes[r] = BitVector(puf.challenge_bits(), challenges[r]);
  }
  const auto responses =
      puf.eval_batch(lanes.data(), lanes.size(), env, rng, clock);
  const ecc::SyndromeHelper helper(code);
  ReferenceCall call;
  std::array<BitVector, 8> ys;
  for (std::size_t r = 0; r < 8; ++r) {
    ys[r] = responses[r];
    call.helpers[r] = helper.generate(responses[r]);
  }
  call.z = reference_obfuscate(
      ys, alupuf::ObfuscationNetwork::Pairing::kHardened);
  return call;
}

/// ChipInstance::sample_delays_batch as the per-gate loop it was written
/// as: lane x's jitter 1 + ratio * gaussian_fast() from noise_rngs[x], one
/// draw per gate in gate order (zero-delay gates included), the same
/// jitter scaling rise and fall, gate-major layout.
inline void reference_sample_delays(const timingsim::DelaySet& nominal,
                                    const variation::NoiseParams& noise,
                                    support::Xoshiro256pp* noise_rngs,
                                    std::size_t count,
                                    timingsim::BatchDelays& out) {
  const std::size_t n = nominal.rise_ps.size();
  out.batch = count;
  out.rise_ps.assign(n * count, 0.0);
  out.fall_ps.assign(n * count, 0.0);
  for (std::size_t g = 0; g < n; ++g) {
    for (std::size_t x = 0; x < count; ++x) {
      const double jitter =
          1.0 + noise.delay_jitter_ratio * noise_rngs[x].gaussian_fast();
      const double rise = nominal.rise_ps[g];
      const double fall = nominal.fall_ps[g];
      out.rise_ps[g * count + x] = rise <= 0.0 ? 0.0 : rise * jitter;
      out.fall_ps[g * count + x] = fall <= 0.0 ? 0.0 : fall * jitter;
    }
  }
}

/// AluPuf::eval_batch restated from the RNG contract in alu_puf.hpp, one
/// lane at a time on the scalar simulator: one `rng.next()` batch seed;
/// lane x's generator Xoshiro256pp(SplitMix64::mix(seed + kGolden*(x+1)));
/// its noisy delays drawn from the die's noise-free delays at `env` by
/// reference_sample_delays; one cone_sim run; then, bit by bit, a fair coin
/// when neither transition reached the arbiter by the capture deadline,
/// else the arbiter's sample of t1 - t0.
struct ReferenceBatch {
  std::vector<alupuf::RawResponse> responses;
  std::vector<support::Xoshiro256pp> lane_rngs;  ///< as the batch leaves them
  std::size_t coins = 0;  ///< bits resolved by the setup-violation coin
};

inline ReferenceBatch reference_eval_batch(
    const alupuf::AluPuf& puf, const alupuf::Challenge* challenges,
    std::size_t count, const variation::Environment& env,
    support::Xoshiro256pp& rng, const alupuf::ClockConstraint* clock) {
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  const auto& config = puf.config();
  const auto circuit = alupuf::shared_circuit(config.width, config.layout);
  const timingsim::DelaySet nominal = puf.chip().nominal_delays(env);
  const timingsim::Arbiter arbiter(config.arbiter);
  const std::uint64_t seed = rng.next();
  ReferenceBatch batch;
  std::vector<timingsim::SignalState> states;
  for (std::size_t x = 0; x < count; ++x) {
    support::Xoshiro256pp lane(
        support::SplitMix64::mix(seed + kGolden * (x + 1)));
    timingsim::BatchDelays sampled;
    reference_sample_delays(nominal, config.noise, &lane, 1, sampled);
    timingsim::DelaySet delays;
    delays.rise_ps = sampled.rise_ps;
    delays.fall_ps = sampled.fall_ps;
    circuit->cone_sim.run(challenges[x], delays, states);
    alupuf::RawResponse response(config.width);
    for (std::size_t i = 0; i < config.width; ++i) {
      const double t0 = states[circuit->circuit.race0[i]].time_ps;
      const double t1 = states[circuit->circuit.race1[i]].time_ps;
      if (clock != nullptr &&
          std::min(t0, t1) > clock->cycle_ps - clock->setup_ps) {
        response.set(i, lane.bernoulli(0.5));
        ++batch.coins;
      } else {
        response.set(i, arbiter.sample(t1 - t0, lane));
      }
    }
    batch.responses.push_back(std::move(response));
    batch.lane_rngs.push_back(lane);
  }
  return batch;
}

}  // namespace pufatt::testref

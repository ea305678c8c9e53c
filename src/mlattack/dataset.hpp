// CRP dataset collection and feature maps for the modeling attacks.
//
// Feature maps:
//  * Arbiter PUF — the parity transform, under which the PUF is exactly
//    linear (the attack's textbook case).
//  * ALU PUF raw response bit — signed challenge bits plus carry-structure
//    products (propagate indicators a_i XOR b_i), which capture most of the
//    carry-chain timing structure the race depends on.
//  * Obfuscated output bit — signed bits of the 64-bit protocol challenge
//    (the only thing the adversary sees); the two-phase XOR folds 8
//    responses together, which is what defeats the attack.
#pragma once

#include <cstdint>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "alupuf/arbiter_puf.hpp"
#include "alupuf/pipeline.hpp"
#include "mlattack/logreg.hpp"

namespace pufatt::mlattack {

/// Parity features for the arbiter PUF (stages + 1 values in {-1,+1}).
std::vector<double> arbiter_features(const support::BitVector& challenge);

/// Features for one raw ALU PUF response bit: signed challenge bits, signed
/// propagate bits (a_i XOR b_i) and a bias term.
std::vector<double> alu_features(const support::BitVector& challenge);

/// Signed bits of a 64-bit word plus bias (for obfuscated-output attacks).
std::vector<double> word_features(std::uint64_t x);

/// Collects `count` labeled examples from an Arbiter PUF (noisy eval).
std::vector<Example> collect_arbiter(const alupuf::ArbiterPuf& puf,
                                     std::size_t count,
                                     support::Xoshiro256pp& rng);

/// Collects examples from a k-XOR Arbiter PUF (parity features of the
/// shared challenge; the XOR makes the target non-linear in them).
std::vector<Example> collect_xor_arbiter(const alupuf::XorArbiterPuf& puf,
                                         std::size_t count,
                                         support::Xoshiro256pp& rng);

/// Collects examples for raw ALU PUF response bit `bit`.  Harvesting is one
/// AluPuf::eval_batch call (its RNG contract applies: the whole batch
/// consumes a single `rng.next()` after the challenge draws).
std::vector<Example> collect_alu_raw(const alupuf::AluPuf& puf,
                                     std::size_t bit, std::size_t count,
                                     support::Xoshiro256pp& rng);

/// Collects examples for obfuscated output bit `bit` of the full pipeline
/// (labels from one PufDevice::query_batch over random 64-bit protocol
/// challenges).
std::vector<Example> collect_obfuscated(const alupuf::PufDevice& device,
                                        std::size_t bit, std::size_t count,
                                        support::Xoshiro256pp& rng);

/// Shard-parallel CRP collection.  Work is cut into fixed `block`-sized
/// shards; shard k derives its own generator from (seed, k) and writes its
/// examples into the preallocated output slice [k*block, ...), so the
/// dataset is identical at every thread count (and differs from the
/// sequential collect_* functions only in RNG schedule, not distribution).
struct ParallelCrpConfig {
  std::size_t threads = 1;
  std::size_t block = 256;     ///< challenges per shard (determinism unit)
  std::uint64_t seed = 1;      ///< dataset seed (shard rngs derive from it)
};

/// Parallel variant of collect_alu_raw over AluPuf::eval_batch (one batch
/// per shard).  Call order inside a shard follows the eval_batch RNG
/// contract with the shard generator.
std::vector<Example> collect_alu_raw_parallel(const alupuf::AluPuf& puf,
                                              std::size_t bit,
                                              std::size_t count,
                                              const ParallelCrpConfig& config);

/// Parallel variant of collect_obfuscated over PufDevice::query_batch.
std::vector<Example> collect_obfuscated_parallel(
    const alupuf::PufDevice& device, std::size_t bit, std::size_t count,
    const ParallelCrpConfig& config);

}  // namespace pufatt::mlattack

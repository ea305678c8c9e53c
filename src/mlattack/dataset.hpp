// CRP feature maps and shard-parallel dataset collection for the modeling
// attacks.  (The arbiter PUF's parity map is ArbiterPuf::features; the
// adversary lab harvests its training sets through QueryOracle.)
//
// Feature maps:
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
#include "alupuf/pipeline.hpp"
#include "mlattack/logreg.hpp"

namespace pufatt::mlattack {

/// Features for one raw ALU PUF response bit: signed challenge bits, signed
/// propagate bits (a_i XOR b_i) and a bias term.
std::vector<double> alu_features(const support::BitVector& challenge);

/// Signed bits of a 64-bit word plus bias (for obfuscated-output attacks).
std::vector<double> word_features(std::uint64_t x);

/// Shard-parallel CRP collection.  Work is cut into fixed `block`-sized
/// shards; shard k derives its own generator from (seed, k) and writes its
/// examples into the preallocated output slice [k*block, ...), so the
/// dataset is identical at every thread count.
struct ParallelCrpConfig {
  std::size_t threads = 1;
  std::size_t block = 256;     ///< challenges per shard (determinism unit)
  std::uint64_t seed = 1;      ///< dataset seed (shard rngs derive from it)
};

/// Examples for raw ALU PUF response bit `bit` over AluPuf::eval_batch
/// (one batch per shard).  Call order inside a shard follows the
/// eval_batch RNG contract with the shard generator.
std::vector<Example> collect_alu_raw_parallel(const alupuf::AluPuf& puf,
                                              std::size_t bit,
                                              std::size_t count,
                                              const ParallelCrpConfig& config);

/// Examples for obfuscated output bit `bit` of the full pipeline over
/// PufDevice::query_batch (labels for random 64-bit protocol challenges).
std::vector<Example> collect_obfuscated_parallel(
    const alupuf::PufDevice& device, std::size_t bit, std::size_t count,
    const ParallelCrpConfig& config);

}  // namespace pufatt::mlattack

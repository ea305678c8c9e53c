// The ALU PUF (paper Section 2): two structurally identical ripple-carry
// adder ALUs race the same challenge; per-bit arbiters decide which ALU's
// sum bit settled first.
//
// AluPuf is the physical device: process variation, per-evaluation jitter,
// arbiter metastability and (optionally) clock-induced setup violations —
// the mechanism behind the paper's overclocking-attack resilience.
// AluPufEmulator is the verifier's PUF.Emulate(): the same race computed
// deterministically from the enrollment delay table H.  The circuit is
// the same design on every chip, so both share one PufCircuit per shape.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/builder.hpp"
#include "support/bitvec.hpp"
#include "support/rng.hpp"
#include "timingsim/arbiter.hpp"
#include "timingsim/bitslice.hpp"
#include "timingsim/timing_sim.hpp"
#include "variation/chip.hpp"

namespace pufatt::alupuf {

/// A PUF challenge: the two add operands, `2*width` bits (a then b), as in
/// the paper ("the add instruction reads the PUF challenge (operands) from
/// the registers inside the CPU").
using Challenge = support::BitVector;

/// A raw (pre-correction, pre-obfuscation) PUF response: `width` bits, one
/// per raced sum bit.
using RawResponse = support::BitVector;

struct AluPufConfig {
  std::size_t width = 32;  ///< adder width = response bits
  variation::TechnologyParams tech;
  variation::QuadTreeConfig quadtree;
  /// Noise and arbiter constants below are calibrated so the simulated
  /// 32-bit PUF reproduces the paper's reported statistics (intra-chip HD
  /// ~11.3%, metastability-dominated — see EXPERIMENTS.md).
  variation::NoiseParams noise{.delay_jitter_ratio = 0.004};
  timingsim::ArbiterParams arbiter{.meta_tau_ps = 0.85};
  netlist::AluPufLayout layout;
};

/// Clock timing constraint for the response capture registers.  When the
/// race has not produced a decision by (cycle - setup), the register
/// latches garbage — the paper's T_ALU + T_set < T_cycle condition.
struct ClockConstraint {
  double cycle_ps = 0.0;   ///< clock period
  double setup_ps = 20.0;  ///< register setup time
};

/// Caller-owned working memory of AluPuf::eval_batch / eval_words: the
/// per-lane noisy delays and generators, the packed challenges, the
/// bit-sliced state and the race times the arbiter sweep reads.  One per
/// thread (threaded drivers keep one per worker slot); a call reusing it
/// allocates nothing once it has seen the batch shape.  It carries no
/// result from one call to the next.
struct AluPufBatchScratch {
  timingsim::BatchDelays delays;
  std::vector<support::Xoshiro256pp> lane_rngs;
  timingsim::BitSliceState slice;
  std::vector<double> race_times;  ///< the arbiter sweep's lane rows
  std::vector<std::uint64_t> input_words;
};

/// The dual-ALU netlist of one (width, layout) with the timing engines
/// compiled over it.  Immutable and shared (see shared_circuit), so copies
/// of an AluPuf or AluPufEmulator stay valid without their source; the
/// engines point into `circuit`, so the object never moves.
struct PufCircuit {
  PufCircuit(std::size_t width, const netlist::AluPufLayout& layout);
  PufCircuit(const PufCircuit&) = delete;
  PufCircuit& operator=(const PufCircuit&) = delete;

  netlist::AluPufCircuit circuit;
  timingsim::TimingSimulator sim;  ///< full netlist (scalar paths)
  /// Restricted to the arbiter cones: its compiled schedule feeds the
  /// bit-sliced engines, and its scalar `run` is the kScalar reference
  /// loop of AluPuf::eval_batch.
  timingsim::TimingSimulator cone_sim;
  timingsim::BitSliceEngine lane_engine;  ///< lane-delay mode over cone_sim
};

/// The process-wide PufCircuit for (width, layout), built on first use and
/// never evicted (a process uses a handful of shapes).  Thread-safe.
std::shared_ptr<const PufCircuit> shared_circuit(
    std::size_t width, const netlist::AluPufLayout& layout = {});

/// The const interface is read-only: threads may share one device and
/// evaluate it at any mix of operating points, each with its own scratch
/// and generator.  Only the aging mutators write.
class AluPuf {
 public:
  /// Builds the dual-ALU circuit and manufactures one chip from
  /// `chip_seed` (every seed is a distinct die).
  AluPuf(const AluPufConfig& config, std::uint64_t chip_seed);

  std::size_t response_bits() const { return config_.width; }
  std::size_t challenge_bits() const { return 2 * config_.width; }

  /// One physical evaluation: evaluation noise plus arbiter metastability.
  /// If `clock` is non-null and neither of a bit's racing transitions
  /// reaches the arbiter by the capture deadline, that bit resolves as an
  /// unbiased coin (setup violation -> wrong half the time, whatever the
  /// expected bit).
  RawResponse eval(const Challenge& challenge,
                   const variation::Environment& env,
                   support::Xoshiro256pp& rng,
                   const ClockConstraint* clock = nullptr) const;

  /// Batched physical evaluation over the bit-sliced engine's lane-delay
  /// mode, restricted to the arbiter cones.  Statistically equivalent to
  /// `count` scalar `eval` calls, with a documented RNG contract instead of
  /// stream-for-stream equality: the batch consumes exactly one
  /// `rng.next()` (its batch_seed), and lane x then draws ALL of its
  /// randomness from the derived generator
  ///   Xoshiro256pp(SplitMix64::mix(batch_seed + kGolden * (x + 1)))
  /// (kGolden = 0x9E3779B97F4A7C15): first one noise deviate per gate in
  /// gate order via the fast ziggurat sampler (gaussian_fast; zero-delay
  /// gates included, see ChipInstance::sample_delays_batch), then the
  /// arbiter/metastability draws bit by bit.  Lane responses are NOT
  /// stream-identical to scalar `eval` (which spends the caller's
  /// generator through the Box-Muller sampler) but follow the identical
  /// distribution, and one batch is fully reproducible from (caller rng
  /// state, challenges).  Note lane seeds depend on the lane index, so
  /// splitting a workload into batches differently yields a different
  /// (equally distributed) noise realization; deterministic drivers must
  /// keep batch boundaries fixed (see support/parallel.hpp).
  ///
  /// `engine` selects the timing kernel only.  The batch_seed draw, the
  /// delay realization and the arbiter sweep are engine-independent, and
  /// both engines compute the same settle-time doubles (the repo's
  /// exactness contract), so responses are byte-identical across engines.
  /// A null `scratch` runs in a call-local one.
  std::vector<RawResponse> eval_batch(
      const Challenge* challenges, std::size_t count,
      const variation::Environment& env, support::Xoshiro256pp& rng,
      const ClockConstraint* clock = nullptr,
      AluPufBatchScratch* scratch = nullptr,
      timingsim::BatchEngine engine = timingsim::BatchEngine::kBitslice) const;

  /// Word form of eval_batch (width <= 32, 1 <= count <= 64): challenge x
  /// is the 2*width-bit word `challenges[x]` (a then b, bit i = challenge
  /// bit i; higher bits must be zero) and response x lands in
  /// `responses[x]` (bit i = response bit i).  The same kernel, RNG
  /// contract and responses as eval_batch over the same challenges, run
  /// bit-sliced in the caller's `scratch`.  The prover's per-call path
  /// (PufDevice::query_words).
  void eval_words(const std::uint64_t* challenges, std::size_t count,
                  const variation::Environment& env,
                  support::Xoshiro256pp& rng, const ClockConstraint* clock,
                  AluPufBatchScratch& scratch,
                  std::uint64_t* responses) const;

  /// Arrival-time difference (t_alu1 - t_alu0) per response bit, noise
  /// free, at `env`.  Exposed for analysis and calibration.
  std::vector<double> race_deltas(const Challenge& challenge,
                                  const variation::Environment& env) const;

  /// Worst-case settling time of any raced output at `env` (the T_ALU of
  /// the paper's overclocking condition), measured over the all-propagate
  /// challenge that maximizes the carry chain.
  double max_settle_ps(const variation::Environment& env) const;

  /// Manufacturer enrollment: exports the gate-level delay table H.
  variation::DelayTable export_model() const { return chip_.export_delay_table(); }

  /// Ambient aging of the whole die (NBTI drift in the field).
  void age_uniformly(double duty, double hours,
                     const variation::AgingParams& params);

  /// Directed stress of one full-adder stage of one ALU (the mechanism of
  /// aging-based response tuning, paper reference [13]): holding that
  /// stage's inputs under stress raises its gates' Vth, slowing it and
  /// widening the race margin of its (and downstream) bits.
  void apply_stage_stress(std::size_t bit, bool alu1, double duty,
                          double hours, const variation::AgingParams& params);

  const AluPufConfig& config() const { return config_; }
  const variation::ChipInstance& chip() const { return chip_; }
  const netlist::AluPufCircuit& circuit() const { return circuit_->circuit; }

 private:
  AluPufConfig config_;
  std::shared_ptr<const PufCircuit> circuit_;
  variation::ChipInstance chip_;
  timingsim::Arbiter arbiter_;
  /// The die's noise-free delays at Environment::nominal(), where nearly
  /// every evaluation runs; the aging mutators recompute it.
  timingsim::DelaySet nominal_;

  /// The die's noise-free delays at `env`: nominal_ at the nominal point,
  /// otherwise computed for this call into `corner`.
  const timingsim::DelaySet& delays_at(const variation::Environment& env,
                                       timingsim::DelaySet& corner) const;
  void check_challenge(const Challenge& challenge) const;
  /// The kernel both eval forms wrap: `count` challenges packed as
  /// pack_input_words lays them out, noise from `batch_seed` (the RNG
  /// contract above); response x's bit i is OR-ed into
  /// `responses[x * ceil(width/64) + i/64]`, which the caller zeroes.
  void eval_packed(std::uint64_t batch_seed, const std::uint64_t* input_words,
                   std::size_t count, const variation::Environment& env,
                   const ClockConstraint* clock, AluPufBatchScratch& ws,
                   timingsim::BatchEngine engine,
                   std::uint64_t* responses) const;
};

/// Verifier-side deterministic emulation from the enrollment model H, at
/// the nominal operating point the verifier assumes the prover runs at.
/// Immutable: the nominal delays and the engine over them are built once
/// (H is not kept) and scratch is call-local or the caller's.
class AluPufEmulator {
 public:
  AluPufEmulator(std::size_t width, const variation::DelayTable& model,
                 const netlist::AluPufLayout& layout = {});

  std::size_t response_bits() const { return width_; }
  const netlist::AluPufCircuit& circuit() const { return circuit_->circuit; }

  /// Noise-free expected response.
  RawResponse eval(const Challenge& challenge) const;

  /// Soft expected response: per-bit log-likelihood values where a positive
  /// entry means "bit is 0" and the magnitude is the race margin in ps.
  /// Bits the physical arbiter resolves near-randomly (tiny margin) come
  /// out near zero, which is exactly the reliability information the
  /// soft-decision helper-data reconstruction consumes.  The scalar
  /// reference the batched paths below are bit-identical to.
  std::vector<double> eval_soft(const Challenge& challenge) const;

  /// Batched soft responses on the bit-sliced engine: `out` is resized to
  /// count*width, challenge x's LLRs at `out[x*width .. (x+1)*width)`.
  /// Bit-identical to eval_soft.
  void eval_soft_batch(const Challenge* challenges, std::size_t count,
                       std::vector<double>& out) const;

  /// Word-level soft batch (width <= 32, 1 <= count <= 64): challenge x is
  /// the 2*width-bit word `challenges[x]` (a then b, bit i = challenge bit
  /// i; higher bits must be zero), and its LLRs land at
  /// `out[x*width .. (x+1)*width)`.  One shared-delay bit-sliced run, sized
  /// to the batch (see BitSliceState::padded), into the caller's `state`;
  /// allocates nothing once `state` has seen the batch size.  The
  /// verifier's per-call path (PufEmulator::emulate_words).
  void eval_soft_words(const std::uint64_t* challenges, std::size_t count,
                       double* out, timingsim::BitSliceState& state) const;

 private:
  /// LLRs of a bit-sliced run in eval_soft_batch layout.
  void soft_from_slice(const timingsim::BitSliceState& state,
                       double* out) const;

  std::size_t width_;
  std::shared_ptr<const PufCircuit> circuit_;
  timingsim::DelaySet delays_;      ///< nominal, from H (scalar paths)
  timingsim::BitSliceEngine engine_;  ///< shared-delay mode over delays_
};

}  // namespace pufatt::alupuf

// Adversary lab: the defender side of the (variant x attack) tournament.
//
// A PufVariant wraps a challenge/response front end around some underlying
// PUF and exposes exactly the surface a modeling adversary gets to touch:
// a visible challenge space, a noisy single-bit query, and a feature map
// (the attacker's own encoding of what it sees — the variant carries it so
// every attack runs on the encoding the literature attacks that variant
// with).  Composable front ends (keyed-NLFSR challenge obfuscation,
// reconfigurable latent obfuscation) wrap an inner variant and transform
// challenges before they reach it, which is how the lab turns PAPERS.md
// defences into rows of the attack matrix.
//
// Variants with a full attestation pipeline behind them additionally expose
// an AttestationSurface, the handle for Gao'17-style model-assisted
// error-free-response replay (src/adversary/attacks.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mlattack/logreg.hpp"
#include "support/bitvec.hpp"
#include "support/rng.hpp"

namespace pufatt::adversary {

/// One raw CRP harvested through an AttestationSurface (invasive phase of
/// the replay attack: one physical query yields the full response word).
struct RawCrp {
  support::BitVector challenge;
  support::BitVector response;
};

/// Produces the attacker's predicted raw response for a raw challenge.
using RawResponder =
    std::function<support::BitVector(const support::BitVector& challenge)>;

/// Attestation-protocol attack surface, exposed by variants that front a
/// complete PUF() pipeline (helper data + obfuscation + verifier).  The
/// replay attack trains per-bit models of the raw responses and then forges
/// whole transcripts; acceptance is decided by the real verifier-side
/// emulator with its distance budgets.
class AttestationSurface {
 public:
  virtual ~AttestationSurface() = default;

  virtual std::size_t raw_challenge_bits() const = 0;
  virtual std::size_t raw_response_bits() const = 0;

  /// Invasive training harvest: `count` raw CRPs on random challenges
  /// (each costs the attacker one query of budget).
  virtual std::vector<RawCrp> collect_raw(std::size_t count,
                                          support::Xoshiro256pp& rng) const = 0;

  /// One verifier call: the verifier issues a fresh protocol challenge; the
  /// attacker answers with model-predicted raw responses, from which it
  /// assembles helper data and the obfuscated response exactly as an honest
  /// device would (the algorithms are public; only the silicon is secret).
  /// Returns whether the verifier accepted the forged transcript.  An
  /// attestation session strings several calls (AttackRunConfig::
  /// replay_session_calls), all of which must pass.
  virtual bool replay_trial(const RawResponder& respond,
                            support::Xoshiro256pp& rng) const = 0;

  /// Trust-assumption probe: acceptance rate of an attacker holding the
  /// verifier's own enrollment model H (error-free responses, Gao'17).
  /// PUFatt's security rests on H staying secret — this measures how
  /// completely attestation collapses when it leaks.
  virtual double leaked_model_acceptance(std::size_t rounds,
                                         support::Xoshiro256pp& rng) const = 0;
};

/// A PUF behind an attacker-visible challenge/response front end.
class PufVariant {
 public:
  virtual ~PufVariant() = default;

  virtual std::string name() const = 0;

  /// Width of the visible challenge space.
  virtual std::size_t challenge_bits() const = 0;

  /// The attack-visible feature map (includes a bias term).  Model-based
  /// attacks train in this space; front ends deliberately leave it at the
  /// inner variant's map applied to the *visible* challenge — the attacker
  /// does not know the key that separates the two.
  virtual std::vector<double> features(
      const support::BitVector& challenge) const = 0;

  /// One noisy evaluation of the visible response bit.
  virtual bool query(const support::BitVector& challenge,
                     support::Xoshiro256pp& rng) const = 0;

  /// Batched queries: out[i] in {0,1}.  The default loops `query`; timing-
  /// engine-backed variants override this to ride the bit-sliced engine so
  /// million-query budgets stay fast.
  virtual void query_batch(const support::BitVector* challenges,
                           std::size_t count, std::uint8_t* out,
                           support::Xoshiro256pp& rng) const;

  /// Called once when the attack's query budget is spent, before held-out
  /// evaluation: "time passes".  Reconfigurable variants re-key here
  /// (Gao'17 latent obfuscation) — the verifier is assumed synchronized,
  /// the attacker's trained model is not.  Default: nothing changes.
  virtual void finish_training() {}

  /// Non-null for variants fronting a full attestation pipeline.
  virtual const AttestationSurface* attestation_surface() const {
    return nullptr;
  }
};

/// Budget-accounted CRP harvesting: every labeled example an attack trains
/// on flows through here, so `used()` is the cell's ground-truth query
/// count.  Collection is one query_batch call per request (fixed batch
/// boundaries keep the harvested dataset reproducible).
class QueryOracle {
 public:
  QueryOracle(const PufVariant& variant, std::size_t budget)
      : variant_(&variant), budget_(budget) {}

  /// Harvests min(n, remaining()) labeled examples in the variant's
  /// feature space.
  std::vector<mlattack::Example> collect(std::size_t n,
                                         support::Xoshiro256pp& rng);

  std::size_t budget() const { return budget_; }
  std::size_t used() const { return used_; }
  std::size_t remaining() const { return budget_ - used_; }

 private:
  const PufVariant* variant_;
  std::size_t budget_ = 0;
  std::size_t used_ = 0;
};

/// Unbudgeted harvest (held-out test sets, verifier references).
std::vector<mlattack::Example> harvest_examples(const PufVariant& variant,
                                                std::size_t count,
                                                support::Xoshiro256pp& rng);

// ----------------------------------------------------------------- variants

struct ArbiterVariantParams {
  std::size_t stages = 64;
  double noise_sigma = 0.05;
};

/// Plain Arbiter PUF (the textbook LR break).
std::unique_ptr<PufVariant> make_arbiter_variant(
    const ArbiterVariantParams& params, std::uint64_t chip_seed);

/// k-XOR Arbiter PUF (linear models cannot express the XOR of k
/// halfspaces).
std::unique_ptr<PufVariant> make_xor_arbiter_variant(
    std::size_t k, const ArbiterVariantParams& params, std::uint64_t chip_seed);

/// MUX/arbiter additive-delay baseline (Venkata'20): two paths race through
/// a chain of 2:1 MUX stages, four independent segment delays per stage.
/// The delay difference is an exact linear function of the parity features,
/// which is what makes this the analytically attackable row (CMA-ES over
/// the additive delay model recovers it by direct search).
std::unique_ptr<PufVariant> make_mux_arbiter_variant(
    const ArbiterVariantParams& params, std::uint64_t chip_seed);

struct AluVariantParams {
  std::size_t width = 32;   ///< adder width (challenge = 2*width bits)
  std::size_t bit = 16;     ///< which response/output bit the attacker models
};

/// One raw ALU PUF response bit (pre-obfuscation; the invasive-access
/// interface).  CRP harvesting rides AluPuf::eval_batch.
std::unique_ptr<PufVariant> make_alu_raw_variant(const AluVariantParams& params,
                                                 std::uint64_t chip_seed);

/// One obfuscated output bit of the full PUF() pipeline (the protocol
/// interface), plus the AttestationSurface for replay attacks.  `width`
/// must have a matching RM(1,m) code (16 or 32 in practice).
std::unique_ptr<PufVariant> make_obfuscated_alu_variant(
    const AluVariantParams& params, std::uint64_t chip_seed);

}  // namespace pufatt::adversary

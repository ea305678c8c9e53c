// Deterministic (variant x attack) tournament.
//
// Every (variant, attack, budget) run is an independent work unit with its
// own RNG stream derived from (tournament seed, cell index, budget index)
// and its own freshly constructed variant instance (same chip seed per
// variant row, so every attack faces the same silicon).  Runs execute
// under support::parallel_blocks with block = 1, so the matrix is
// byte-identical at any thread count; reports carry no wall-clock fields
// for the same reason.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adversary/attacks.hpp"

namespace pufatt::adversary {

/// Builds a fresh variant instance; `chip_seed` fixes the silicon.
using VariantFactory =
    std::function<std::unique_ptr<PufVariant>(std::uint64_t chip_seed)>;

struct TournamentConfig {
  std::vector<std::size_t> budgets{1000, 4000, 12000};
  std::size_t test_queries = 2000;
  std::size_t replay_rounds = 40;
  std::size_t replay_session_calls = 4;
  std::size_t replay_challenges = 32;
  double replay_threshold = 0.25;
  std::size_t threads = 1;
  std::uint64_t seed = 1;
};

/// One matrix cell: every budget's report for a (variant, attack) pair.
struct Cell {
  std::string variant;
  std::string attack;
  std::vector<AttackReport> reports;  ///< parallel to config.budgets
};

struct TournamentResult {
  TournamentConfig config;
  std::vector<Cell> cells;  ///< variant-major, attack-minor

  const Cell* find(const std::string& variant,
                   const std::string& attack) const;
};

/// Byte-stable JSON rendering of the matrix (no timestamps, no wall times;
/// doubles at fixed precision).  Two runs with equal seeds compare equal
/// with ==.
std::string matrix_json(const TournamentResult& result);

class Tournament {
 public:
  explicit Tournament(TournamentConfig config) : config_(std::move(config)) {}

  /// `id` keys the row in the result matrix (factories may not know their
  /// instance name before construction).
  void add_variant(std::string id, VariantFactory factory);
  void add_attack(std::shared_ptr<const Attack> attack);

  std::size_t variant_count() const { return variants_.size(); }
  std::size_t attack_count() const { return attacks_.size(); }

  TournamentResult run() const;

 private:
  struct VariantEntry {
    std::string id;
    VariantFactory make;
  };

  TournamentConfig config_;
  std::vector<VariantEntry> variants_;
  std::vector<std::shared_ptr<const Attack>> attacks_;
};

/// Knobs for the standard lab roster (shrunk by the quick/test paths).
struct LabParams {
  ArbiterVariantParams arbiter;
  std::size_t xor_k = 4;
  AluVariantParams alu;
  mlattack::LogRegParams logreg;
  MlpParams mlp;
  CmaesAttack::Params cmaes;
};

/// Registers the standard roster: 7 variants (arbiter, xor-arbiter-k,
/// mux-arbiter, alu-raw, alu-obf, nlfsr-arbiter, latent-arbiter) and 4
/// attacks (lr, mlp, cmaes, replay).
void add_standard_lab(Tournament& tournament, const LabParams& params = {});

}  // namespace pufatt::adversary

// Modeling-attack walkthrough: an adversary with temporary physical access
// collects challenge/response pairs and trains a logistic-regression model
// (Ruehrmair-style), hoping to answer future attestations in software.
// The demo shows why the paper layers an XOR obfuscation network on top of
// the raw PUF: the raw interface is learnable; the obfuscated one is not.
#include <algorithm>
#include <cstdio>

#include "adversary/tournament.hpp"
#include "core/crp_database.hpp"
#include "support/table.hpp"

using namespace pufatt;

namespace {

constexpr std::uint64_t kChip = 0xACCE55;

/// Logistic regression on bits 2, 15 and 30 of the chip behind `make`
/// (one adversary-lab tournament, LR column only).  Prints one table line
/// per bit and returns the best held-out accuracy.
template <typename MakeVariant>
double attack_bits(std::size_t queries, std::size_t test_queries,
                   std::uint64_t seed, MakeVariant make) {
  adversary::TournamentConfig config;
  config.budgets = {queries};
  config.test_queries = test_queries;
  config.seed = seed;
  adversary::Tournament tournament(config);
  for (const std::size_t bit : {2u, 15u, 30u}) {
    tournament.add_variant(std::to_string(bit), [make, bit](std::uint64_t) {
      return make(adversary::AluVariantParams{.width = 32, .bit = bit}, kChip);
    });
  }
  tournament.add_attack(std::make_shared<adversary::LogRegAttack>());

  support::Table table({"bit", "queries", "test accuracy"});
  double best = 0.0;
  for (const auto& cell : tournament.run().cells) {
    const auto& r = cell.reports.back();
    best = std::max(best, r.test_accuracy);
    table.add_row({cell.variant, std::to_string(r.queries_used),
                   support::Table::num(r.test_accuracy, 3)});
  }
  std::printf("%s\n", table.render().c_str());
  return best;
}

}  // namespace

int main() {
  std::printf("Modeling attack against the ALU PUF\n"
              "===================================\n\n");

  // --- Phase 1: the adversary trains on the raw response interface --------
  // (possible only with invasive access — the paper's architecture keeps
  // raw responses in registers "not visible to the outside").
  std::printf("phase 1: logistic regression on RAW response bits\n");
  const double best_raw =
      attack_bits(5000, 1000, 0xDEC0DE, adversary::make_alu_raw_variant);

  // --- Phase 2: the realistic attack surface: obfuscated outputs ----------
  std::printf("phase 2: the same attacker on the OBFUSCATED output z\n");
  const double best_obf = attack_bits(2000, 500, 0xDEC0DF,
                                      adversary::make_obfuscated_alu_variant);

  std::printf("best raw-bit model: %.1f%%   best obfuscated-bit model: %.1f%%\n",
              best_raw * 100.0, best_obf * 100.0);
  std::printf("-> the XOR network costs the attacker ~%.0f accuracy points\n\n",
              (best_raw - best_obf) * 100.0);

  // --- Phase 3: even a perfect raw model cannot pass CRP authentication
  //     for a *different* die (unclonability at the hardware level).
  std::printf("phase 3: CRP-database authentication (paper Section 2, "
              "option 1)\n");
  alupuf::AluPufConfig config;
  config.width = 32;
  const alupuf::AluPuf genuine(config, kChip);
  const alupuf::AluPuf clone(config, 0xC10'0E);
  support::Xoshiro256pp rng(99);
  auto db = core::CrpDatabase::collect(genuine, 6, rng);
  int genuine_ok = 0, clone_ok = 0;
  for (int i = 0; i < 3; ++i) {
    if (db.authenticate(genuine, rng).accepted) ++genuine_ok;
    if (db.authenticate(clone, rng).accepted) ++clone_ok;
  }
  std::printf("genuine device accepted %d/3, clone accepted %d/3 "
              "(database storage: %zu bytes, %zu entries left)\n",
              genuine_ok, clone_ok, db.storage_bytes(), db.remaining());

  return best_obf < 0.6 && genuine_ok == 3 && clone_ok == 0 ? 0 : 1;
}

// Adversary-lab attack matrix: every PufVariant row against every Attack
// column at increasing query budgets, run by the deterministic tournament
// (src/adversary/tournament.hpp).
//
// The matrix is the PR's regression surface for the paper's security
// claims, gated on three facts:
//   1. LR breaks the plain Arbiter PUF (test accuracy >= 0.95 at the max
//      budget — the Ruehrmair break the paper cites as motivation);
//   2. no attack exceeds 0.60 against the obfuscated ALU pipeline at the
//      max budget (the paper's response-obfuscation claim, with the replay
//      column measured as session acceptance — several fresh verifier
//      nonces, all of which the forged transcripts must pass — against the
//      real verifier);
//   3. the keyed-NLFSR front end degrades LR on the same arbiter chip to
//      <= 0.60 (challenge obfuscation as an independent defence axis).
// The Gao'17 leaked-enrollment-model probe is reported alongside but NOT
// gated — it measures a trust assumption (H must stay secret), not an
// attack the design claims to stop.
//
// Determinism claim checked every run: the matrix JSON is byte-identical
// across two runs at different thread counts.
//
// Results go to stdout and BENCH_attack_matrix.json.  `--quick` shrinks
// budgets and training so the whole matrix fits in CI across sanitizer
// trees, with relaxed accuracy gates (small budgets legitimately learn
// less); the full run backs the acceptance numbers above.
#include <cstdio>
#include <cstring>
#include <string>

#include "adversary/tournament.hpp"
#include "support/table.hpp"

using namespace pufatt;
using namespace pufatt::adversary;

namespace {

struct Gate {
  std::string name;
  double value = 0.0;
  double bound = 0.0;
  bool upper = false;  ///< true: value must be <= bound
  bool pass() const { return upper ? value <= bound : value >= bound; }
};

TournamentConfig base_config(bool quick, std::size_t threads) {
  TournamentConfig config;
  if (quick) {
    config.budgets = {256, 1024};
    config.test_queries = 600;
    config.replay_rounds = 16;
  } else {
    config.budgets = {1000, 4000, 12000};
    config.test_queries = 2000;
    config.replay_rounds = 40;
  }
  config.threads = threads;
  config.seed = 0xA17AC4ULL;  // fixed matrix seed
  return config;
}

LabParams lab_params(bool quick) {
  LabParams params;
  if (quick) {
    params.logreg.epochs = 25;
    params.mlp.epochs = 15;
    params.cmaes.cmaes.max_generations = 80;
    params.cmaes.cmaes.patience = 20;
    params.cmaes.fitness_subsample = 2000;
  } else {
    params.logreg.epochs = 50;
    params.mlp.epochs = 30;
    params.cmaes.cmaes.max_generations = 160;
    params.cmaes.cmaes.patience = 32;
  }
  return params;
}

TournamentResult run_matrix(bool quick, std::size_t threads) {
  Tournament tournament(base_config(quick, threads));
  add_standard_lab(tournament, lab_params(quick));
  return tournament.run();
}

void write_json(const char* path, bool quick, const std::string& matrix,
                const std::vector<Gate>& gates, bool stable,
                double leaked_acceptance) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"attack_matrix\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f, "  \"byte_stable_across_runs\": %s,\n",
               stable ? "true" : "false");
  std::fprintf(f, "  \"leaked_model_acceptance\": %.6f,\n", leaked_acceptance);
  std::fprintf(f, "  \"gates\": [\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.6f, \"bound\": %.6f, "
                 "\"op\": \"%s\", \"pass\": %s}%s\n",
                 g.name.c_str(), g.value, g.bound, g.upper ? "<=" : ">=",
                 g.pass() ? "true" : "false",
                 i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // The byte-stable matrix itself (already JSON; indentation differs from
  // the envelope but parsers do not care).
  std::fprintf(f, "  \"matrix\": %s", matrix.c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0 ||
        std::strcmp(argv[i], "--smoke") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 64;
    }
  }
  std::printf("=== Adversary lab: %s attack matrix ===\n\n",
              quick ? "quick" : "full");

  // Determinism claim: two runs, different thread counts, same bytes.
  const auto result = run_matrix(quick, /*threads=*/1);
  const std::string json = matrix_json(result);
  const std::string json_rerun = matrix_json(run_matrix(quick, /*threads=*/4));
  const bool stable = json == json_rerun;

  // Trust-assumption probe (reported, not gated): an attacker holding the
  // verifier's enrollment model forges error-free transcripts.
  double leaked_acceptance = 0.0;
  {
    const auto pipeline = make_obfuscated_alu_variant(
        {}, support::SplitMix64::mix(result.config.seed ^ 0xC41B2E8D5F07A696ULL));
    support::Xoshiro256pp rng(result.config.seed);
    leaked_acceptance =
        pipeline->attestation_surface()->leaked_model_acceptance(20, rng);
  }

  // ---- stdout report -------------------------------------------------------
  support::Table table({"variant", "attack", "budget", "queries", "train acc",
                        "test acc / replay"});
  for (const Cell& cell : result.cells) {
    const AttackReport& r = cell.reports.back();
    table.add_row({cell.variant, cell.attack, std::to_string(r.budget),
                   std::to_string(r.queries_used),
                   support::Table::num(r.train_accuracy, 3),
                   support::Table::num(r.test_accuracy, 3) +
                       (r.replay_acceptance >= 0.0 ? " (replay)" : "")});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("leaked enrollment model H -> replay acceptance %.2f "
              "(trust assumption, not gated)\n\n",
              leaked_acceptance);

  // ---- gates ---------------------------------------------------------------
  std::vector<Gate> gates;
  const auto* lr_arbiter = result.find("arbiter", "lr");
  gates.push_back(Gate{"lr_breaks_arbiter",
                       lr_arbiter->reports.back().test_accuracy,
                       quick ? 0.80 : 0.95, /*upper=*/false});
  for (const char* attack : {"lr", "mlp", "cmaes", "replay"}) {
    const auto* cell = result.find("alu-obf", attack);
    gates.push_back(Gate{std::string("obfuscated_resists_") + attack,
                         cell->reports.back().test_accuracy,
                         quick ? 0.68 : 0.60, /*upper=*/true});
  }
  const auto* nlfsr = result.find("nlfsr-arbiter", "lr");
  gates.push_back(Gate{"nlfsr_degrades_lr",
                       nlfsr->reports.back().test_accuracy,
                       quick ? 0.68 : 0.60, /*upper=*/true});

  bool ok = stable;
  for (const Gate& g : gates) {
    std::printf("gate %-26s %.3f %s %.2f  %s\n", g.name.c_str(), g.value,
                g.upper ? "<=" : ">=", g.bound, g.pass() ? "PASS" : "FAIL");
    ok = ok && g.pass();
  }
  std::printf("byte-stable across runs: %s\n", stable ? "yes" : "NO");

  write_json("BENCH_attack_matrix.json", quick, json, gates, stable,
             leaked_acceptance);
  return ok ? 0 : 1;
}

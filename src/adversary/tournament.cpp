#include "adversary/tournament.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "adversary/frontends.hpp"
#include "support/parallel.hpp"

namespace pufatt::adversary {

namespace {

// Domain-separation constants for the tournament's seed derivations.
constexpr std::uint64_t kChipDomain = 0xC41B2E8D5F07A693ULL;
constexpr std::uint64_t kCellDomain = 0x17D09A4BE6C835F2ULL;

std::uint64_t chip_seed_for(std::uint64_t seed, std::size_t variant_index) {
  return support::SplitMix64::mix(seed ^ (kChipDomain + variant_index));
}

std::uint64_t run_seed_for(std::uint64_t seed, std::size_t cell_index,
                           std::size_t budget_index) {
  return support::SplitMix64::mix(
      seed ^ (kCellDomain + cell_index * 64 + budget_index));
}

void append_double(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  out += buf;
}

void append_size(std::string& out, std::size_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu", value);
  out += buf;
}

}  // namespace

const Cell* TournamentResult::find(const std::string& variant,
                                   const std::string& attack) const {
  for (const Cell& cell : cells) {
    if (cell.variant == variant && cell.attack == attack) return &cell;
  }
  return nullptr;
}

void Tournament::add_variant(std::string id, VariantFactory factory) {
  variants_.push_back(VariantEntry{std::move(id), std::move(factory)});
}

void Tournament::add_attack(std::shared_ptr<const Attack> attack) {
  attacks_.push_back(std::move(attack));
}

TournamentResult Tournament::run() const {
  if (variants_.empty() || attacks_.empty()) {
    throw std::logic_error("Tournament: empty roster");
  }
  TournamentResult result;
  result.config = config_;
  const std::size_t num_cells = variants_.size() * attacks_.size();
  result.cells.resize(num_cells);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    result.cells[cell].variant = variants_[cell / attacks_.size()].id;
    result.cells[cell].attack = attacks_[cell % attacks_.size()]->name();
    result.cells[cell].reports.resize(config_.budgets.size());
  }

  // One work unit per (cell, budget); block = 1 so every unit computes the
  // same thing no matter which worker picks it up.
  const std::size_t total = num_cells * config_.budgets.size();
  support::parallel_blocks(
      total, /*block=*/1, config_.threads,
      [&](std::size_t unit, std::size_t, std::size_t, std::size_t) {
        const std::size_t cell = unit / config_.budgets.size();
        const std::size_t budget_index = unit % config_.budgets.size();
        const std::size_t variant_index = cell / attacks_.size();
        const std::size_t attack_index = cell % attacks_.size();

        // Fresh instance per run: attacks mutate variants through
        // finish_training(), and runs must not order-depend.
        auto device = variants_[variant_index].make(
            chip_seed_for(config_.seed, variant_index));

        AttackRunConfig run_config;
        run_config.budget = config_.budgets[budget_index];
        run_config.test_queries = config_.test_queries;
        run_config.replay_rounds = config_.replay_rounds;
        run_config.replay_session_calls = config_.replay_session_calls;
        run_config.replay_challenges = config_.replay_challenges;
        run_config.replay_threshold = config_.replay_threshold;

        support::Xoshiro256pp rng(
            run_seed_for(config_.seed, cell, budget_index));
        result.cells[cell].reports[budget_index] =
            attacks_[attack_index]->run(*device, run_config, rng);
      });
  return result;
}

std::string matrix_json(const TournamentResult& result) {
  std::string out;
  out.reserve(1 << 14);
  out += "{\n  \"schema_version\": 1,\n  \"seed\": ";
  append_size(out, static_cast<std::size_t>(result.config.seed));
  out += ",\n  \"budgets\": [";
  for (std::size_t i = 0; i < result.config.budgets.size(); ++i) {
    if (i != 0) out += ", ";
    append_size(out, result.config.budgets[i]);
  }
  out += "],\n  \"cells\": [\n";
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    const Cell& cell = result.cells[c];
    out += "    {\"variant\": \"" + cell.variant + "\", \"attack\": \"" +
           cell.attack + "\", \"results\": [";
    for (std::size_t b = 0; b < cell.reports.size(); ++b) {
      const AttackReport& r = cell.reports[b];
      if (b != 0) out += ", ";
      out += "{\"budget\": ";
      append_size(out, r.budget);
      out += ", \"queries_used\": ";
      append_size(out, r.queries_used);
      out += ", \"train_accuracy\": ";
      append_double(out, r.train_accuracy);
      out += ", \"test_accuracy\": ";
      append_double(out, r.test_accuracy);
      out += ", \"replay_acceptance\": ";
      append_double(out, r.replay_acceptance);
      out += "}";
    }
    out += "]}";
    out += (c + 1 < result.cells.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

void add_standard_lab(Tournament& tournament, const LabParams& params) {
  const ArbiterVariantParams arbiter = params.arbiter;
  const AluVariantParams alu = params.alu;
  const std::size_t xor_k = params.xor_k;

  tournament.add_variant("arbiter", [arbiter](std::uint64_t chip) {
    return make_arbiter_variant(arbiter, chip);
  });
  tournament.add_variant("xor-arbiter", [arbiter, xor_k](std::uint64_t chip) {
    return make_xor_arbiter_variant(xor_k, arbiter, chip);
  });
  tournament.add_variant("mux-arbiter", [arbiter](std::uint64_t chip) {
    return make_mux_arbiter_variant(arbiter, chip);
  });
  tournament.add_variant("alu-raw", [alu](std::uint64_t chip) {
    return make_alu_raw_variant(alu, chip);
  });
  tournament.add_variant("alu-obf", [alu](std::uint64_t chip) {
    return make_obfuscated_alu_variant(alu, chip);
  });
  tournament.add_variant("nlfsr-arbiter", [arbiter](std::uint64_t chip) {
    // The front-end key is part of the same device: derive it from the
    // chip seed so the row stays a one-seed device.
    return make_nlfsr_frontend(
        make_arbiter_variant(arbiter, chip),
        support::SplitMix64::mix(chip ^ 0xF00D5EED00000001ULL));
  });
  tournament.add_variant("latent-arbiter", [arbiter](std::uint64_t chip) {
    return make_latent_reconfig_frontend(
        make_arbiter_variant(arbiter, chip),
        support::SplitMix64::mix(chip ^ 0xF00D5EED00000002ULL));
  });

  tournament.add_attack(std::make_shared<LogRegAttack>(params.logreg));
  tournament.add_attack(std::make_shared<MlpAttack>(params.mlp));
  tournament.add_attack(std::make_shared<CmaesAttack>(params.cmaes));
  tournament.add_attack(std::make_shared<ReplayAttack>(params.logreg));
}

}  // namespace pufatt::adversary

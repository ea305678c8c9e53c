// Figure 3 reproduction: inter-chip Hamming distance of 32-bit ALU PUF
// responses, raw (before obfuscation) and obfuscated, over a population of
// simulated 45 nm chips.
//
// Paper: mean inter-chip HD 11.48 bits (35.9%) raw, 14.28 bits (44.6%)
// obfuscated; ideal 16 bits (50%).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "alupuf/pipeline.hpp"
#include "ecc/reed_muller.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace pufatt;

int main() {
  std::printf("=== Figure 3: inter-chip HD, 32-bit ALU PUF ===\n\n");

  const ecc::ReedMuller1 code(5);
  alupuf::AluPufConfig config;
  config.width = 32;

  const std::size_t pairs = 40;
  const std::size_t raw_challenges_per_pair = 4000;
  const std::size_t obf_challenges_per_pair = 250;

  support::Histogram raw_hist(33);
  support::Histogram obf_hist(33);
  support::Xoshiro256pp rng(0xF16'3);

  // Chunked over the bit-sliced engine (one 64-lanes-per-word pass per chip
  // per chunk); same distributions as per-challenge eval, different noise
  // realization.
  const std::size_t chunk = 250;
  std::vector<alupuf::Challenge> challenges(chunk);
  std::vector<std::uint64_t> xs(chunk);
  for (std::size_t p = 0; p < pairs; ++p) {
    const alupuf::PufDevice a(config, 10'000 + 2 * p, code);
    const alupuf::PufDevice b(config, 10'001 + 2 * p, code);
    const auto env = variation::Environment::nominal();

    // Raw responses: single ALU race per challenge.
    for (std::size_t base = 0; base < raw_challenges_per_pair; base += chunk) {
      const std::size_t n = std::min(chunk, raw_challenges_per_pair - base);
      for (std::size_t c = 0; c < n; ++c) {
        challenges[c] = support::BitVector::random(64, rng);
      }
      const auto ra = a.raw_puf().eval_batch(challenges.data(), n, env, rng);
      const auto rb = b.raw_puf().eval_batch(challenges.data(), n, env, rng);
      for (std::size_t c = 0; c < n; ++c) {
        raw_hist.add(ra[c].hamming_distance(rb[c]));
      }
    }
    // Obfuscated outputs: full pipeline (8 races per output).
    for (std::size_t base = 0; base < obf_challenges_per_pair; base += chunk) {
      const std::size_t n = std::min(chunk, obf_challenges_per_pair - base);
      for (std::size_t c = 0; c < n; ++c) xs[c] = rng.next();
      const auto qa = a.query_batch(xs.data(), n, env, rng);
      const auto qb = b.query_batch(xs.data(), n, env, rng);
      for (std::size_t c = 0; c < n; ++c) {
        obf_hist.add(qa[c].z.hamming_distance(qb[c].z));
      }
    }
  }

  std::printf("%s\n", raw_hist.render("inter-chip HD, raw responses").c_str());
  std::printf("%s\n",
              obf_hist.render("inter-chip HD, obfuscated responses").c_str());

  support::Table table({"series", "paper mean (bits)", "paper %", "ours (bits)",
                        "ours %"});
  table.add_row({"raw", "11.48", "35.9%",
                 support::Table::num(raw_hist.mean(), 2),
                 support::Table::num(raw_hist.mean() / 32.0 * 100.0, 1) + "%"});
  table.add_row({"obfuscated", "14.28", "44.6%",
                 support::Table::num(obf_hist.mean(), 2),
                 support::Table::num(obf_hist.mean() / 32.0 * 100.0, 1) + "%"});
  table.add_row({"ideal", "16.00", "50.0%", "16.00", "50.0%"});
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "shape check: obfuscation must push the mean toward 50%%: %s\n",
      obf_hist.mean() > raw_hist.mean() ? "YES" : "NO");
  return 0;
}

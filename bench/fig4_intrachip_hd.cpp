// Figure 4 reproduction: intra-chip Hamming distance of raw 32-bit ALU PUF
// responses under voltage variation (90-110% VDD), temperature variation
// (-20..+120 C) and arbiter metastability.
//
// Paper: mean intra-chip HD 3.62 bits (11.3%); metastability is the
// dominant contributor because the symmetric paths track each other across
// operating conditions.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

using namespace pufatt;

int main() {
  std::printf("=== Figure 4: intra-chip HD under V/T corners and "
              "metastability ===\n\n");

  alupuf::AluPufConfig config;
  config.width = 32;
  const std::size_t chips = 8;
  const std::size_t challenges = 12'000;  // per chip per condition

  struct Condition {
    const char* name;
    variation::Environment env;
  };
  const Condition conditions[] = {
      {"metastability (nominal)", {1.0, 25.0}},
      {"voltage 90%", {0.9, 25.0}},
      {"voltage 110%", {1.1, 25.0}},
      {"temperature -20C", {1.0, -20.0}},
      {"temperature +120C", {1.0, 120.0}},
  };

  support::Xoshiro256pp rng(0xF16'4);
  std::vector<support::Histogram> hists;
  for (std::size_t i = 0; i < std::size(conditions); ++i) hists.emplace_back(33);

  // Chunked over the bit-sliced engine: one reference batch at nominal,
  // then one batch per corner on the same challenges.  Same distributions
  // as per-challenge eval, different noise realization.
  const auto nominal = variation::Environment::nominal();
  const std::size_t chunk = 250;
  std::vector<alupuf::Challenge> batch(chunk);
  for (std::size_t chip = 0; chip < chips; ++chip) {
    const alupuf::AluPuf puf(config, 40'000 + chip);
    const std::size_t per_chip = challenges / chips;
    for (std::size_t base = 0; base < per_chip; base += chunk) {
      const std::size_t n = std::min(chunk, per_chip - base);
      for (std::size_t c = 0; c < n; ++c) {
        batch[c] = support::BitVector::random(64, rng);
      }
      const auto reference = puf.eval_batch(batch.data(), n, nominal, rng);
      for (std::size_t k = 0; k < std::size(conditions); ++k) {
        const auto corner =
            puf.eval_batch(batch.data(), n, conditions[k].env, rng);
        for (std::size_t c = 0; c < n; ++c) {
          hists[k].add(reference[c].hamming_distance(corner[c]));
        }
      }
    }
  }

  for (std::size_t k = 0; k < std::size(conditions); ++k) {
    std::printf("%s\n", hists[k].render(conditions[k].name).c_str());
  }

  // Aggregate over all conditions, as the paper's single summary number.
  double total = 0.0;
  std::uint64_t n = 0;
  support::Table table({"condition", "mean HD (bits)", "% of 32"});
  for (std::size_t k = 0; k < std::size(conditions); ++k) {
    table.add_row({conditions[k].name, support::Table::num(hists[k].mean(), 2),
                   support::Table::num(hists[k].mean() / 32.0 * 100.0, 1)});
    total += hists[k].mean() * static_cast<double>(hists[k].total());
    n += hists[k].total();
  }
  const double overall = total / static_cast<double>(n);
  table.add_row({"overall (ours)", support::Table::num(overall, 2),
                 support::Table::num(overall / 32.0 * 100.0, 1)});
  table.add_row({"paper", "3.62", "11.3"});
  table.add_row({"ideal", "0.00", "0.0"});
  std::printf("%s\n", table.render().c_str());

  std::printf("shape check: corners add little over metastability alone: "
              "%s (meta %.2f vs worst corner %.2f)\n",
              hists[4].mean() < 2.5 * hists[0].mean() ? "YES" : "NO",
              hists[0].mean(), hists[4].mean());
  return 0;
}

// Model-validation bench: compares the fast floating-mode settling engine
// (what every PUF experiment uses) against the event-driven inertial-delay
// simulator on the actual raced adder circuit.
//
// Reported: per-bit race-outcome agreement, settle-time gap distribution
// and glitch activity — the evidence that the fast engine's approximation
// does not distort the PUF statistics.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "netlist/builder.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "timingsim/bitslice.hpp"
#include "timingsim/event_sim.hpp"
#include "timingsim/timing_sim.hpp"
#include "variation/chip.hpp"

using namespace pufatt;
using namespace pufatt::timingsim;

int main() {
  std::printf("=== Engine cross-check: floating-mode vs event-driven ===\n\n");

  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::TechnologyParams tech;
  const variation::QuadTreeConfig qt;
  const variation::ChipInstance chip(circuit.net, tech, qt, 31415);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());

  const TimingSimulator fast(circuit.net);
  const EventSimulator slow(circuit.net);
  support::Xoshiro256pp rng(0xC0C);

  const std::size_t challenges = 1500;
  std::size_t race_agree = 0, race_total = 0;
  std::size_t strong_agree = 0, strong_total = 0;
  support::OnlineStats settle_gap, glitches;
  std::vector<SignalState> fast_states;
  const std::vector<bool> zeros(circuit.net.num_inputs(), false);

  std::vector<support::BitVector> all_challenges;
  all_challenges.reserve(challenges);

  std::size_t raced_bits = 0, silent_bits = 0;
  for (std::size_t c = 0; c < challenges; ++c) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < circuit.net.num_inputs(); ++i) {
      in.push_back(rng.bernoulli(0.5));
    }
    support::BitVector bits(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) bits.set(i, in[i]);
    fast.run(bits, delays, fast_states);
    all_challenges.push_back(std::move(bits));
    const auto slow_states = slow.run(zeros, in, delays);

    for (std::size_t bit = 0; bit < circuit.width; ++bit) {
      const auto g0 = circuit.race0[bit];
      const auto g1 = circuit.race1[bit];
      // A transition-latching arbiter only races bits where both ALUs'
      // outputs actually switch; level-identical bits produce no event to
      // race (the fast engine's "determination time" has no physical
      // counterpart there).  Compare only genuine races.
      if (slow_states[g0].transitions == 0 ||
          slow_states[g1].transitions == 0) {
        ++silent_bits;
        continue;
      }
      ++raced_bits;
      const double fast_delta =
          fast_states[g1].time_ps - fast_states[g0].time_ps;
      const double slow_delta =
          slow_states[g1].settle_ps - slow_states[g0].settle_ps;
      const bool agree = (fast_delta > 0) == (slow_delta > 0);
      if (agree) ++race_agree;
      ++race_total;
      const double margin = std::min(std::abs(fast_delta),
                                     std::abs(slow_delta));
      if (margin > 5.0) {
        ++strong_total;
        if (agree) ++strong_agree;
      }
      settle_gap.add(std::abs(fast_states[g0].time_ps -
                              slow_states[g0].settle_ps));
      glitches.add(static_cast<double>(slow_states[g0].transitions));
    }
  }

  // Bit-sliced lanes: the 64-evaluations-per-word engine must be
  // *bit-identical* to the scalar floating-mode engine on every net of
  // every challenge, in both of its modes — zero divergence, not
  // statistical agreement.  Shared-delay mode (the emulation path, with
  // its time-representation shortcuts and full-adder fusion) runs on the
  // nominal delays; lane-delay mode (the noisy device path) on one
  // jittered per-lane realization, each lane against a scalar run on that
  // lane's column of delays.
  std::size_t shared_divergence = 0;
  std::size_t lane_divergence = 0;
  std::size_t call_shared_divergence = 0;
  std::size_t call_lane_divergence = 0;
  {
    const std::size_t gates = circuit.net.num_gates();
    const auto diverges = [&](const BitSliceEngine& slice,
                              const BitSliceState& bs, std::size_t b) {
      std::size_t nets = 0;
      for (std::size_t g = 0; g < gates; ++g) {
        const auto id = static_cast<netlist::GateId>(g);
        if (slice.value(bs, id, b) != fast_states[g].value ||
            slice.time_ps(bs, id, b) != fast_states[g].time_ps) {
          ++nets;
        }
      }
      return nets;
    };

    const BitSliceEngine slice_shared(fast.compiled(), delays);
    BitSliceState bs;
    std::vector<std::uint64_t> words;
    pack_input_words(all_challenges.data(), challenges,
                     circuit.net.num_inputs(), words);
    slice_shared.run(words.data(), challenges, bs);
    for (std::size_t b = 0; b < challenges; ++b) {
      fast.run(all_challenges[b], delays, fast_states);
      shared_divergence += diverges(slice_shared, bs, b);
    }

    const BitSliceEngine slice_lane(fast.compiled());
    BatchDelays lane_delays;
    lane_delays.batch = challenges;
    lane_delays.rise_ps.resize(gates * challenges);
    lane_delays.fall_ps.resize(gates * challenges);
    for (std::size_t g = 0; g < gates; ++g) {
      for (std::size_t b = 0; b < challenges; ++b) {
        const double jitter = 1.0 + 0.01 * rng.uniform();
        lane_delays.rise_ps[g * challenges + b] = delays.rise_ps[g] * jitter;
        lane_delays.fall_ps[g * challenges + b] = delays.fall_ps[g] * jitter;
      }
    }
    slice_lane.run(words.data(), challenges, lane_delays, bs);
    DelaySet column;
    column.rise_ps.resize(gates);
    column.fall_ps.resize(gates);
    for (std::size_t b = 0; b < challenges; ++b) {
      for (std::size_t g = 0; g < gates; ++g) {
        column.rise_ps[g] = lane_delays.rise_ps[g * challenges + b];
        column.fall_ps[g] = lane_delays.fall_ps[g * challenges + b];
      }
      fast.run(all_challenges[b], column, fast_states);
      lane_divergence += diverges(slice_lane, bs, b);
    }

    // The served shape: the same challenges again as 8-lane PUF() calls
    // packed from challenge words, through one reused state — the
    // verifier's shared-delay call, then the device's lane-delay call on
    // the same per-lane delays as above.
    const std::size_t inputs = circuit.net.num_inputs();
    const std::size_t call_lanes = 8;
    std::vector<std::uint64_t> challenge_words(challenges);
    for (std::size_t b = 0; b < challenges; ++b) {
      challenge_words[b] = all_challenges[b].to_u64();
    }
    std::vector<std::uint64_t> call_words(inputs);
    BitSliceState call_state;
    for (std::size_t b0 = 0; b0 < challenges; b0 += call_lanes) {
      const std::size_t n = std::min(call_lanes, challenges - b0);
      pack_input_words(challenge_words.data() + b0, n, inputs,
                       call_words.data());
      slice_shared.run(call_words.data(), n, call_state);
      for (std::size_t x = 0; x < n; ++x) {
        fast.run(all_challenges[b0 + x], delays, fast_states);
        call_shared_divergence += diverges(slice_shared, call_state, x);
      }
    }
    BatchDelays call_delays;
    for (std::size_t b0 = 0; b0 < challenges; b0 += call_lanes) {
      const std::size_t n = std::min(call_lanes, challenges - b0);
      pack_input_words(challenge_words.data() + b0, n, inputs,
                       call_words.data());
      call_delays.batch = n;
      call_delays.rise_ps.resize(gates * n);
      call_delays.fall_ps.resize(gates * n);
      for (std::size_t g = 0; g < gates; ++g) {
        for (std::size_t x = 0; x < n; ++x) {
          call_delays.rise_ps[g * n + x] =
              lane_delays.rise_ps[g * challenges + b0 + x];
          call_delays.fall_ps[g * n + x] =
              lane_delays.fall_ps[g * challenges + b0 + x];
        }
      }
      slice_lane.run(call_words.data(), n, call_delays, call_state);
      for (std::size_t x = 0; x < n; ++x) {
        for (std::size_t g = 0; g < gates; ++g) {
          column.rise_ps[g] = call_delays.rise_ps[g * n + x];
          column.fall_ps[g] = call_delays.fall_ps[g * n + x];
        }
        fast.run(all_challenges[b0 + x], column, fast_states);
        call_lane_divergence += diverges(slice_lane, call_state, x);
      }
    }
  }

  support::Table table({"metric", "value"});
  table.add_row({"bit-sliced diverging nets (shared delays)",
                 std::to_string(shared_divergence)});
  table.add_row({"bit-sliced diverging nets (lane delays)",
                 std::to_string(lane_divergence)});
  table.add_row({"bit-sliced diverging nets (8-lane calls, shared delays)",
                 std::to_string(call_shared_divergence)});
  table.add_row({"bit-sliced diverging nets (8-lane calls, lane delays)",
                 std::to_string(call_lane_divergence)});
  table.add_row({"bits with a genuine race",
                 support::Table::num(
                     100.0 * raced_bits / (raced_bits + silent_bits), 1) +
                     "%"});
  table.add_row({"race-outcome agreement (all)",
                 support::Table::num(100.0 * race_agree / race_total, 2) + "%"});
  table.add_row({"race-outcome agreement (margin > 5 ps)",
                 support::Table::num(100.0 * strong_agree / strong_total, 2) +
                     "%"});
  table.add_row({"|settle-time gap| mean (ps)",
                 support::Table::num(settle_gap.mean(), 2)});
  table.add_row({"|settle-time gap| max (ps)",
                 support::Table::num(settle_gap.max(), 2)});
  table.add_row({"sum-bit transitions per eval (mean)",
                 support::Table::num(glitches.mean(), 2)});
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "reading: above a 5 ps margin the engines agree on ~99%% of race\n"
      "outcomes; the remaining disagreements sit at small margins where\n"
      "the physical arbiter is metastable anyway (the noise model covers\n"
      "them).  Floating mode charges the full determination chain, so its\n"
      "settle times upper-bound the event engine's — conservative for the\n"
      "overclocking analysis.\n");
  return (strong_agree * 100 >= strong_total * 90 && shared_divergence == 0 &&
          lane_divergence == 0 && call_shared_divergence == 0 &&
          call_lane_divergence == 0)
             ? 0
             : 1;
}

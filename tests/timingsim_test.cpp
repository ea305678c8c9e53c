#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <vector>

#include "netlist/builder.hpp"
#include "support/stats.hpp"
#include "timingsim/arbiter.hpp"
#include "timingsim/bitslice.hpp"
#include "timingsim/timing_sim.hpp"
#include "to_bits.hpp"
#include "variation/chip.hpp"

namespace pufatt::timingsim {
namespace {

using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;
using testref::to_bits;

std::vector<double> unit_delays(const Netlist& net, double d = 1.0) {
  std::vector<double> delays(net.num_gates(), d);
  for (std::size_t g = 0; g < net.num_gates(); ++g) {
    const auto kind = net.gate(static_cast<GateId>(g)).kind;
    if (kind == GateKind::kInput || kind == GateKind::kConst0 ||
        kind == GateKind::kConst1) {
      delays[g] = 0.0;
    }
  }
  return delays;
}

/// One scalar run with symmetric delays, into a fresh state vector.
std::vector<SignalState> settle(const TimingSimulator& sim,
                                const std::vector<bool>& inputs,
                                const std::vector<double>& delays) {
  std::vector<SignalState> states;
  sim.run(to_bits(inputs), delays, states);
  return states;
}

// ------------------------------------------------------ settling semantics

TEST(TimingSim, BufferChainAccumulatesDelay) {
  Netlist net;
  GateId sig = net.add_input("a");
  for (int i = 0; i < 5; ++i) sig = net.add_gate(GateKind::kBuf, {sig});
  TimingSimulator sim(net);
  const auto states = settle(sim, {true}, unit_delays(net, 2.0));
  EXPECT_TRUE(states[sig].value);
  EXPECT_DOUBLE_EQ(states[sig].time_ps, 10.0);
}

TEST(TimingSim, XorWaitsForLatestInput) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId slow = net.add_gate(GateKind::kBuf, {b});
  const GateId x = net.add_gate(GateKind::kXor, {a, slow});
  TimingSimulator sim(net);
  auto delays = unit_delays(net, 1.0);
  delays[slow] = 7.0;
  delays[x] = 1.0;
  const auto states = settle(sim, {true, false}, delays);
  EXPECT_DOUBLE_EQ(states[x].time_ps, 8.0);  // max(0, 7) + 1
}

TEST(TimingSim, AndControlledByEarliestZero) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId slow_b = net.add_gate(GateKind::kBuf, {b});
  const GateId g = net.add_gate(GateKind::kAnd, {a, slow_b});
  TimingSimulator sim(net);
  auto delays = unit_delays(net);
  delays[slow_b] = 9.0;
  delays[g] = 1.0;
  // a=0 arrives at t=0 and controls the AND: output settles at 0+1,
  // regardless of the slow b path.
  const auto s0 = settle(sim, {false, true}, delays);
  EXPECT_FALSE(s0[g].value);
  EXPECT_DOUBLE_EQ(s0[g].time_ps, 1.0);
  // Both 1: must wait for the slow path.
  const auto s1 = settle(sim, {true, true}, delays);
  EXPECT_TRUE(s1[g].value);
  EXPECT_DOUBLE_EQ(s1[g].time_ps, 10.0);
}

TEST(TimingSim, OrControlledByEarliestOne) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId slow_b = net.add_gate(GateKind::kBuf, {b});
  const GateId g = net.add_gate(GateKind::kOr, {a, slow_b});
  TimingSimulator sim(net);
  auto delays = unit_delays(net);
  delays[slow_b] = 9.0;
  delays[g] = 1.0;
  const auto s1 = settle(sim, {true, false}, delays);
  EXPECT_TRUE(s1[g].value);
  EXPECT_DOUBLE_EQ(s1[g].time_ps, 1.0);
  const auto s0 = settle(sim, {false, false}, delays);
  EXPECT_FALSE(s0[g].value);
  EXPECT_DOUBLE_EQ(s0[g].time_ps, 10.0);
}

TEST(TimingSim, NandNorInvertValues) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId nand_g = net.add_gate(GateKind::kNand, {a, b});
  const GateId nor_g = net.add_gate(GateKind::kNor, {a, b});
  TimingSimulator sim(net);
  const auto states = settle(sim, {true, true}, unit_delays(net));
  EXPECT_FALSE(states[nand_g].value);
  EXPECT_FALSE(states[nor_g].value);
}

TEST(TimingSim, ConstantsAlwaysSettled) {
  Netlist net;
  const GateId c0 = net.add_gate(GateKind::kConst0, {});
  const GateId c1 = net.add_gate(GateKind::kConst1, {});
  TimingSimulator sim(net);
  const auto states = settle(sim, {}, unit_delays(net));
  EXPECT_EQ(states[c0].time_ps, kAlwaysSettled);
  EXPECT_EQ(states[c1].time_ps, kAlwaysSettled);
}

TEST(TimingSim, MuxStaticSelectUsesOnlyChosenPath) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId slow = net.add_gate(GateKind::kBuf, {a});
  const GateId fast = net.add_gate(GateKind::kBuf, {a});
  const GateId sel0 = net.add_gate(GateKind::kConst0, {});
  const GateId mux = net.add_gate(GateKind::kMux, {sel0, fast, slow});
  TimingSimulator sim(net);
  auto delays = unit_delays(net);
  delays[slow] = 50.0;
  delays[fast] = 1.0;
  delays[mux] = 1.0;
  const auto states = settle(sim, {true}, delays);
  EXPECT_TRUE(states[mux].value);
  EXPECT_DOUBLE_EQ(states[mux].time_ps, 2.0);  // fast path only
}

TEST(TimingSim, MuxDynamicSelectWaitsForSelect) {
  Netlist net;
  const GateId s = net.add_input("s");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId slow_sel = net.add_gate(GateKind::kBuf, {s});
  const GateId mux = net.add_gate(GateKind::kMux, {slow_sel, a, b});
  TimingSimulator sim(net);
  auto delays = unit_delays(net);
  delays[slow_sel] = 5.0;
  delays[mux] = 1.0;
  // a != b: output depends on select, which settles at t=5.
  const auto states = settle(sim, {true, false, true}, delays);
  EXPECT_TRUE(states[mux].value);
  EXPECT_DOUBLE_EQ(states[mux].time_ps, 6.0);
  // a == b: select is irrelevant; settles when data settles.
  const auto states2 = settle(sim, {true, true, true}, delays);
  EXPECT_DOUBLE_EQ(states2[mux].time_ps, 1.0);
}

TEST(TimingSim, InputArrivalTimesRespected) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId x = net.add_gate(GateKind::kXor, {a, b});
  TimingSimulator sim(net);
  std::vector<SignalState> states;
  const std::vector<double> arrival{3.0, 10.0};
  sim.run(to_bits({true, false}), unit_delays(net), states, &arrival);
  EXPECT_DOUBLE_EQ(states[x].time_ps, 11.0);
}

TEST(TimingSim, ValuesMatchFunctionalEvaluation) {
  // Property: for random circuits (here: the ALU PUF netlist) the timing
  // simulator's values must equal Netlist::evaluate's.
  const auto circuit = netlist::build_alu_puf_circuit(16);
  TimingSimulator sim(circuit.net);
  const auto delays = unit_delays(circuit.net);
  support::Xoshiro256pp rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < circuit.net.num_inputs(); ++i) {
      in.push_back(rng.bernoulli(0.5));
    }
    const auto golden = circuit.net.evaluate(in);
    const auto states = settle(sim, in, delays);
    for (std::size_t g = 0; g < golden.size(); ++g) {
      ASSERT_EQ(states[g].value, golden[g]) << "gate " << g;
    }
  }
}

TEST(TimingSim, CarryChainDelayGrowsWithPropagation) {
  // 8-bit adder: a = all ones, b = 1 keeps every stage in propagate mode, so
  // the MSB sum waits for the full carry ripple.  With a = b = 0 every stage
  // kills the carry (a XOR b = 0 settles the AND early) and the MSB settles
  // almost immediately — the challenge-dependent timing the paper exploits.
  Netlist net;
  std::vector<GateId> a, b;
  for (int i = 0; i < 8; ++i) a.push_back(net.add_input("a"));
  for (int i = 0; i < 8; ++i) b.push_back(net.add_input("b"));
  const GateId cin = net.add_gate(GateKind::kConst0, {});
  const auto ports = netlist::build_ripple_carry_adder(net, a, b, cin, {});
  TimingSimulator sim(net);
  const auto delays = unit_delays(net);

  std::vector<bool> ripple(16, false);
  for (int i = 0; i < 8; ++i) ripple[i] = true;  // a = 0xFF
  ripple[8] = true;                              // b = 0x01
  const auto with_carry = settle(sim, ripple, delays);

  const std::vector<bool> no_carry(16, false);  // a = 0, b = 0: kill chain
  const auto without = settle(sim, no_carry, delays);

  EXPECT_GT(with_carry[ports.sum[7]].time_ps,
            without[ports.sum[7]].time_ps + 5.0);
}

TEST(TimingSim, RunValidatesSizes) {
  Netlist net;
  net.add_input("a");
  TimingSimulator sim(net);
  EXPECT_THROW(settle(sim, {}, {0.0}), std::invalid_argument);
  EXPECT_THROW(settle(sim, {true}, {}), std::invalid_argument);
}

// ----------------------------------------------------------------- Arbiter

TEST(Arbiter, DecidesBySignDeterministically) {
  EXPECT_TRUE(Arbiter::decide(1.0));
  EXPECT_FALSE(Arbiter::decide(-1.0));
  EXPECT_FALSE(Arbiter::decide(0.0));
}

TEST(Arbiter, ProbabilityMonotoneInDelta) {
  const Arbiter arb({.meta_tau_ps = 2.0});
  EXPECT_LT(arb.probability_one(-5.0), arb.probability_one(0.0));
  EXPECT_LT(arb.probability_one(0.0), arb.probability_one(5.0));
  EXPECT_DOUBLE_EQ(arb.probability_one(0.0), 0.5);
}

TEST(Arbiter, LargeGapsAreDeterministic) {
  const Arbiter arb({.meta_tau_ps = 1.0});
  EXPECT_GT(arb.probability_one(20.0), 0.999999);
  EXPECT_LT(arb.probability_one(-20.0), 0.000001);
}

TEST(Arbiter, ZeroTauIsHardDecision) {
  const Arbiter arb({.meta_tau_ps = 0.0});
  EXPECT_DOUBLE_EQ(arb.probability_one(0.001), 1.0);
  EXPECT_DOUBLE_EQ(arb.probability_one(-0.001), 0.0);
}

TEST(Arbiter, SampleFrequencyMatchesProbability) {
  const Arbiter arb({.meta_tau_ps = 1.0});
  support::Xoshiro256pp rng(71);
  const double delta = 0.8;
  int ones = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ones += arb.sample(delta, rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / trials, arb.probability_one(delta),
              0.005);
}

TEST(Arbiter, MetastabilityOnlyNearZero) {
  // With a realistic tau, a 10 ps gap is essentially deterministic while a
  // 0.1 ps gap is a near coin flip — the paper's metastability story.
  const Arbiter arb({.meta_tau_ps = 1.0});
  EXPECT_NEAR(arb.probability_one(0.1), 0.5, 0.05);
  EXPECT_GT(arb.probability_one(10.0), 0.9999);
}

TEST(Arbiter, SampleLanesMatchesPerLaneSampling) {
  // The batch sweep against the scalar loop it replaces: per lane, bit
  // order, sample() or the setup-violation coin.  Lane counts around the
  // 8-lane block; deltas that reach the vector bracket's edges (signed
  // zeros, a subnormal, +-700 tau at the approximation's domain bound,
  // +-800 tau past it, NaN); with and without a deadline, logistic and
  // step (tau = 0) arbiters.  Every bit and every generator's next draw
  // must agree.
  const double tau_ref = 0.85;
  const std::size_t width = 45;  // two refills, a part 8-row group
  for (const double tau : {0.85, 0.0}) {
    const Arbiter arbiter({.meta_tau_ps = tau});
    for (const std::size_t lanes : {1, 5, 8, 9, 64}) {
      for (const bool clocked : {false, true}) {
        support::Xoshiro256pp rng(lanes * 10 + (clocked ? 1 : 0));
        const double special[] = {0.0,
                                  -0.0,
                                  4.9e-324,
                                  -4.9e-324,
                                  700.0 * tau_ref,
                                  -700.0 * tau_ref,
                                  800.0 * tau_ref,
                                  -800.0 * tau_ref,
                                  std::nan("")};
        std::vector<double> t0(width * lanes), t1(width * lanes);
        for (std::size_t k = 0; k < t0.size(); ++k) {
          t0[k] = 50.0 * rng.uniform();
          const double delta = k % 3 == 0
                                   ? special[(k / 3) % std::size(special)]
                                   : 6.0 * (rng.uniform() - 0.5);
          t1[k] = t0[k] + delta;
        }
        const double deadline = 25.0;
        const double* const limit = clocked ? &deadline : nullptr;
        std::vector<support::Xoshiro256pp> swept, scalar;
        for (std::size_t x = 0; x < lanes; ++x) {
          swept.emplace_back(1000 + 7 * x);
        }
        scalar = swept;
        const std::size_t rwords = (width + 63) / 64;
        std::vector<std::uint64_t> got(lanes * rwords, 0);
        arbiter.sample_lanes(t0.data(), t1.data(), lanes, width, limit,
                             swept.data(), got.data());
        for (std::size_t x = 0; x < lanes; ++x) {
          for (std::size_t i = 0; i < width; ++i) {
            const double a = t0[i * lanes + x];
            const double b = t1[i * lanes + x];
            const bool want = clocked && std::min(a, b) > deadline
                                  ? scalar[x].bernoulli(0.5)
                                  : arbiter.sample(b - a, scalar[x]);
            ASSERT_EQ((got[x * rwords + i / 64] >> (i % 64)) & 1u,
                      static_cast<std::uint64_t>(want))
                << "tau " << tau << " lanes " << lanes << " clocked "
                << clocked << " lane " << x << " bit " << i;
          }
          ASSERT_EQ(swept[x].next(), scalar[x].next())
              << "tau " << tau << " lanes " << lanes << " lane " << x;
        }
      }
    }
  }
}

// ----------------------------------------- integration: race on real chip

TEST(Integration, RaceDeltasAreChipSpecific) {
  const auto circuit = netlist::build_alu_puf_circuit(8);
  const variation::TechnologyParams tech;
  const variation::QuadTreeConfig qt;
  const variation::ChipInstance chip_a(circuit.net, tech, qt, 11);
  const variation::ChipInstance chip_b(circuit.net, tech, qt, 22);
  TimingSimulator sim(circuit.net);
  const auto env = variation::Environment::nominal();
  const auto delays_a = chip_a.nominal_delays(env);
  const auto delays_b = chip_b.nominal_delays(env);

  // Full carry activity.
  const auto in = to_bits(std::vector<bool>(16, true));
  std::vector<SignalState> sa, sb;
  sim.run(in, delays_a, sa);
  sim.run(in, delays_b, sb);
  int sign_diff = 0;
  for (std::size_t i = 0; i < circuit.race0.size(); ++i) {
    const double da =
        sa[circuit.race1[i]].time_ps - sa[circuit.race0[i]].time_ps;
    const double db =
        sb[circuit.race1[i]].time_ps - sb[circuit.race0[i]].time_ps;
    EXPECT_NE(da, 0.0);
    if ((da > 0) != (db > 0)) ++sign_diff;
  }
  // Different chips should disagree on at least one race outcome.
  EXPECT_GT(sign_diff, 0);
}

// ------------------------------------------------- compiled representation

TEST(CompiledNetlist, LevelizedScheduleIsTopological) {
  const auto circuit = netlist::build_alu_puf_circuit(8);
  const CompiledNetlist compiled(circuit.net);
  EXPECT_EQ(compiled.num_active(), circuit.net.num_gates());
  EXPECT_TRUE(compiled.inputs_in_netlist_order());
  std::vector<bool> seen(circuit.net.num_gates(), false);
  for (const GateId g : compiled.schedule()) {
    const auto begin = compiled.fanin_begin(g);
    for (std::uint32_t k = 0; k < compiled.fanin_count(g); ++k) {
      EXPECT_TRUE(seen[compiled.fanins()[begin + k]])
          << "fanin scheduled after its reader";
      EXPECT_LT(compiled.level(compiled.fanins()[begin + k]),
                compiled.level(g));
    }
    seen[g] = true;
  }
}

TEST(CompiledNetlist, ObservedConeDropsUnreachableGates) {
  // a --NOT--> x (observed);  b --NOT--> y (not observed)
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId x = net.add_gate(GateKind::kNot, {a});
  const GateId y = net.add_gate(GateKind::kNot, {b});
  const CompiledNetlist compiled(net, {x});
  EXPECT_TRUE(compiled.active(a));
  EXPECT_TRUE(compiled.active(x));
  EXPECT_FALSE(compiled.active(b));
  EXPECT_FALSE(compiled.active(y));
  EXPECT_EQ(compiled.num_active(), 2u);
}

TEST(TimingSim, RejectsPermutedInputOrder) {
  // After reorder_inputs the k-th input gate in id order is no longer
  // input k; the engines' sequential input binding would silently
  // mis-assign challenge bits, so construction must throw.
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  net.add_output("o", net.add_gate(GateKind::kAnd, {a, b}));
  EXPECT_NO_THROW(TimingSimulator{net});
  net.reorder_inputs({1, 0});
  EXPECT_THROW(TimingSimulator{net}, std::invalid_argument);
}

// ---------------------------------------------------- bit-sliced engine

// Exactness is the contract: the bit-sliced engine must produce the same
// doubles as the scalar simulator (same classification-free arithmetic,
// symmetric-exact min/max), so every comparison below is ==, not NEAR.

TEST(BitSlice, SharedModeMatchesScalarOnAluCircuit) {
  const auto circuit = netlist::build_alu_puf_circuit(8);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1234);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const TimingSimulator sim(circuit.net);
  const BitSliceEngine slice(sim.compiled(), delays);

  // 100 lanes: one full 64-lane word plus a 36-lane tail.
  const std::size_t count = 100;
  support::Xoshiro256pp rng(91);
  std::vector<support::BitVector> challenges;
  for (std::size_t i = 0; i < count; ++i) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  pack_input_words(challenges.data(), count, circuit.net.num_inputs(), words);
  BitSliceState out;
  slice.run(words.data(), count, out);

  std::vector<SignalState> states;
  for (std::size_t b = 0; b < count; ++b) {
    sim.run(challenges[b], delays, states);
    for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
      const auto id = static_cast<GateId>(g);
      ASSERT_EQ(slice.value(out, id, b), states[g].value)
          << "gate " << g << " lane " << b;
      ASSERT_EQ(slice.time_ps(out, id, b), states[g].time_ps)
          << "gate " << g << " lane " << b;
    }
  }
  // Lane rows read every time representation (constant, bimodal, wide).
  std::vector<double> row(count);
  for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
    const auto id = static_cast<GateId>(g);
    slice.lane_times(out, id, row.data());
    for (std::size_t b = 0; b < count; ++b) {
      ASSERT_EQ(row[b], slice.time_ps(out, id, b))
          << "gate " << g << " lane " << b;
    }
  }
}

TEST(BitSlice, SharedModeShortBatchesMatchScalar) {
  // The verifier's per-call shape: a few lanes of the 32-bit circuit
  // (64 inputs, so challenges fit the word packer).  One state is reused
  // across every count, the way an emulator's scratch state is, so the
  // tight one-word stride must survive growing and shrinking batches.
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 4321);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const TimingSimulator sim(circuit.net);
  const BitSliceEngine slice(sim.compiled(), delays);
  const std::size_t inputs = circuit.net.num_inputs();
  ASSERT_EQ(inputs, 64u);

  support::Xoshiro256pp rng(95);
  BitSliceState out;
  std::vector<SignalState> states;
  for (const std::size_t count : {1u, 5u, 8u, 63u, 64u, 65u, 8u}) {
    std::vector<support::BitVector> challenges;
    std::vector<std::uint64_t> challenge_words;
    for (std::size_t i = 0; i < count; ++i) {
      challenges.push_back(support::BitVector::random(inputs, rng));
      challenge_words.push_back(challenges.back().to_u64());
    }
    std::vector<std::uint64_t> words;
    pack_input_words(challenges.data(), count, inputs, words);
    std::vector<std::uint64_t> from_words(words.size(), ~0ULL);
    pack_input_words(challenge_words.data(), count, inputs, from_words.data());
    ASSERT_EQ(from_words, words) << "count " << count;

    slice.run(words.data(), count, out);
    const std::size_t stride =
        count <= 64 ? (count + 7) / 8 * 8 : out.nwords * 64;
    ASSERT_EQ(out.padded, stride) << "count " << count;
    ASSERT_EQ(out.times.size(), slice.num_wide() * stride);

    std::vector<double> deltas(count);
    for (std::size_t b = 0; b < count; ++b) {
      sim.run(challenges[b], delays, states);
      for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
        const auto id = static_cast<GateId>(g);
        ASSERT_EQ(slice.value(out, id, b), states[g].value)
            << "count " << count << " gate " << g << " lane " << b;
        ASSERT_EQ(slice.time_ps(out, id, b), states[g].time_ps)
            << "count " << count << " gate " << g << " lane " << b;
      }
    }
    for (std::size_t i = 0; i < circuit.race0.size(); ++i) {
      slice.race_deltas(out, circuit.race0[i], circuit.race1[i],
                        deltas.data(), 1);
      for (std::size_t b = 0; b < count; ++b) {
        ASSERT_EQ(deltas[b], slice.time_ps(out, circuit.race1[i], b) -
                                 slice.time_ps(out, circuit.race0[i], b));
      }
    }
  }
}

TEST(BitSlice, LaneDelayModeMatchesScalar) {
  // The noisy device path: every lane carries its own delay realization,
  // and each lane must equal a scalar run on that lane's column of the
  // BatchDelays matrix, gate for gate.
  const auto circuit = netlist::build_alu_puf_circuit(8);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1234);
  const auto base = chip.nominal_delays(variation::Environment::nominal());
  const TimingSimulator sim(circuit.net);
  const BitSliceEngine slice(sim.compiled());

  const std::size_t count = 70;  // non-multiple-of-64 tail
  const std::size_t gates = circuit.net.num_gates();
  support::Xoshiro256pp rng(92);
  BatchDelays delays;
  delays.batch = count;
  delays.rise_ps.resize(gates * count);
  delays.fall_ps.resize(gates * count);
  for (std::size_t g = 0; g < gates; ++g) {
    for (std::size_t b = 0; b < count; ++b) {
      const double jitter = 1.0 + 0.02 * rng.uniform();
      delays.rise_ps[g * count + b] = base.rise_ps[g] * jitter;
      delays.fall_ps[g * count + b] = base.fall_ps[g] * jitter;
    }
  }
  std::vector<support::BitVector> challenges;
  for (std::size_t i = 0; i < count; ++i) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  pack_input_words(challenges.data(), count, circuit.net.num_inputs(), words);
  BitSliceState out;
  slice.run(words.data(), count, delays, out);

  DelaySet column;
  column.rise_ps.resize(gates);
  column.fall_ps.resize(gates);
  std::vector<SignalState> states;
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t g = 0; g < gates; ++g) {
      column.rise_ps[g] = delays.rise_ps[g * count + b];
      column.fall_ps[g] = delays.fall_ps[g * count + b];
    }
    sim.run(challenges[b], column, states);
    for (std::size_t g = 0; g < gates; ++g) {
      const auto id = static_cast<GateId>(g);
      ASSERT_EQ(slice.value(out, id, b), states[g].value)
          << "gate " << g << " lane " << b;
      ASSERT_EQ(slice.time_ps(out, id, b), states[g].time_ps)
          << "gate " << g << " lane " << b;
    }
  }
  std::vector<double> row(count);
  for (std::size_t g = 0; g < gates; ++g) {
    const auto id = static_cast<GateId>(g);
    slice.lane_times(out, id, row.data());
    for (std::size_t b = 0; b < count; ++b) {
      ASSERT_EQ(row[b], slice.time_ps(out, id, b))
          << "gate " << g << " lane " << b;
    }
  }
}

TEST(BitSlice, OutsideConeGatesReadZero) {
  // Same shape as ObservedConeDropsUnreachableGates: y is outside the
  // observed cone, so its values and times must read back zeroed.
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId x = net.add_gate(GateKind::kNot, {a});
  const GateId y = net.add_gate(GateKind::kNot, {b});
  const TimingSimulator sim(net, {x});
  DelaySet delays;
  delays.rise_ps.assign(net.num_gates(), 1.0);
  delays.fall_ps.assign(net.num_gates(), 1.0);
  const BitSliceEngine slice(sim.compiled(), delays);

  support::BitVector challenges[2];
  challenges[0] = support::BitVector(2);
  challenges[1] = support::BitVector(2);
  challenges[1].set(0, true);  // a=1 on lane 1
  challenges[0].set(1, true);  // b=1 on lane 0 (feeds only the dead cone)
  std::vector<std::uint64_t> words;
  pack_input_words(challenges, 2, 2, words);
  BitSliceState out;
  slice.run(words.data(), 2, out);
  EXPECT_TRUE(slice.value(out, x, 0));
  EXPECT_FALSE(slice.value(out, x, 1));
  EXPECT_FALSE(slice.value(out, y, 0));
  EXPECT_FALSE(slice.value(out, y, 1));
  EXPECT_EQ(slice.time_ps(out, y, 0), 0.0);
  EXPECT_EQ(slice.time_ps(out, y, 1), 0.0);
}

TEST(BitSlice, StateReuseAcrossRunsAndEngines) {
  // BitSliceState caches a materialized execution plan stamped with its
  // owning engine's id; reusing one state across runs and across engines
  // must stay correct (the stamp forces a rebuild on engine change).
  const auto circuit = netlist::build_alu_puf_circuit(8);
  const variation::ChipInstance chip_a(circuit.net, {}, {}, 1);
  const variation::ChipInstance chip_b(circuit.net, {}, {}, 2);
  const auto env = variation::Environment::nominal();
  const auto delays_a = chip_a.nominal_delays(env);
  const auto delays_b = chip_b.nominal_delays(env);
  const TimingSimulator sim(circuit.net);
  const BitSliceEngine slice_a(sim.compiled(), delays_a);
  const BitSliceEngine slice_b(sim.compiled(), delays_b);

  const std::size_t count = 65;
  support::Xoshiro256pp rng(94);
  std::vector<support::BitVector> challenges;
  for (std::size_t i = 0; i < count; ++i) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  pack_input_words(challenges.data(), count, circuit.net.num_inputs(), words);

  BitSliceState shared_state;  // one state threaded through everything
  slice_a.run(words.data(), count, shared_state);
  std::vector<double> first_a(circuit.race0.size() * count);
  for (std::size_t i = 0; i < circuit.race0.size(); ++i) {
    for (std::size_t b = 0; b < count; ++b) {
      first_a[i * count + b] = slice_a.time_ps(shared_state, circuit.race0[i], b);
    }
  }
  // Same engine, same inputs, same state: identical bytes.
  slice_a.run(words.data(), count, shared_state);
  for (std::size_t i = 0; i < circuit.race0.size(); ++i) {
    for (std::size_t b = 0; b < count; ++b) {
      ASSERT_EQ(slice_a.time_ps(shared_state, circuit.race0[i], b),
                first_a[i * count + b]);
    }
  }
  // Different engine, same state: must match a fresh-state run of B.
  slice_b.run(words.data(), count, shared_state);
  BitSliceState fresh;
  slice_b.run(words.data(), count, fresh);
  for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
    const auto id = static_cast<GateId>(g);
    for (std::size_t b = 0; b < count; ++b) {
      ASSERT_EQ(slice_b.value(shared_state, id, b), slice_b.value(fresh, id, b));
      ASSERT_EQ(slice_b.time_ps(shared_state, id, b),
                slice_b.time_ps(fresh, id, b));
    }
  }
  // An engine built where a destroyed one lived is a new owner too.
  std::optional<BitSliceEngine> slot(std::in_place, sim.compiled(), delays_a);
  BitSliceState reused;
  slot->run(words.data(), count, reused);
  slot.emplace(sim.compiled(), delays_b);
  slot->run(words.data(), count, reused);
  for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
    const auto id = static_cast<GateId>(g);
    for (std::size_t b = 0; b < count; ++b) {
      ASSERT_EQ(slot->time_ps(reused, id, b), slice_b.time_ps(fresh, id, b));
    }
  }
}

TEST(BitSlice, RunValidatesModeAndShapes) {
  Netlist net;
  const GateId a = net.add_input("a");
  net.add_output("o", net.add_gate(GateKind::kNot, {a}));
  const TimingSimulator sim(net);
  DelaySet shared;
  shared.rise_ps.assign(net.num_gates(), 1.0);
  shared.fall_ps.assign(net.num_gates(), 1.0);
  const BitSliceEngine lane_engine(sim.compiled());
  const BitSliceEngine shared_engine(sim.compiled(), shared);

  const std::uint64_t words[] = {1};
  BitSliceState out;
  BatchDelays lane_delays;
  lane_delays.batch = 1;
  lane_delays.rise_ps.assign(net.num_gates(), 1.0);
  lane_delays.fall_ps.assign(net.num_gates(), 1.0);

  // Empty batches are rejected in both modes.
  EXPECT_THROW(shared_engine.run(words, 0, out), std::invalid_argument);
  EXPECT_THROW(lane_engine.run(words, 0, lane_delays, out),
               std::invalid_argument);
  // Shared-mode run on a lane engine (and vice versa) is a usage bug.
  EXPECT_THROW(lane_engine.run(words, 1, out), std::logic_error);
  EXPECT_THROW(shared_engine.run(words, 1, lane_delays, out),
               std::logic_error);
  // Lane-delay shape must match the lane count.
  BatchDelays bad = lane_delays;
  bad.batch = 3;
  EXPECT_THROW(lane_engine.run(words, 1, bad, out), std::invalid_argument);
  // Shared ctor rejects a delay set sized for a different netlist.
  DelaySet wrong;
  wrong.rise_ps.assign(net.num_gates() + 1, 1.0);
  wrong.fall_ps.assign(net.num_gates() + 1, 1.0);
  EXPECT_THROW(BitSliceEngine(sim.compiled(), wrong), std::invalid_argument);
}

TEST(BitSlice, LaneDelayModeOneBlockMatchesScalar) {
  // The simulated device's shape: one PUF() call is exactly 8 lanes of the
  // 32-bit ALU packed from challenge words, one AVX-512 block of the time
  // kernels.  1 and 5 lanes cover the short batches beside it; one state
  // is reused across every count, as a device's scratch state is.
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 2468);
  const auto base = chip.nominal_delays(variation::Environment::nominal());
  const TimingSimulator sim(circuit.net);
  const BitSliceEngine slice(sim.compiled());
  const std::size_t gates = circuit.net.num_gates();
  const std::size_t inputs = circuit.net.num_inputs();
  ASSERT_EQ(inputs, 64u);

  support::Xoshiro256pp rng(96);
  BitSliceState out;
  DelaySet column;
  column.rise_ps.resize(gates);
  column.fall_ps.resize(gates);
  std::vector<SignalState> states;
  for (const std::size_t count : {1u, 5u, 8u, 8u, 1u}) {
    BatchDelays delays;
    delays.batch = count;
    delays.rise_ps.resize(gates * count);
    delays.fall_ps.resize(gates * count);
    for (std::size_t g = 0; g < gates; ++g) {
      for (std::size_t b = 0; b < count; ++b) {
        const double jitter = 1.0 + 0.02 * rng.uniform();
        delays.rise_ps[g * count + b] = base.rise_ps[g] * jitter;
        delays.fall_ps[g * count + b] = base.fall_ps[g] * jitter;
      }
    }
    std::vector<std::uint64_t> challenges(count);
    for (auto& c : challenges) c = rng.next();
    std::uint64_t words[64];
    pack_input_words(challenges.data(), count, inputs, words);
    slice.run(words, count, delays, out);

    for (std::size_t b = 0; b < count; ++b) {
      for (std::size_t g = 0; g < gates; ++g) {
        column.rise_ps[g] = delays.rise_ps[g * count + b];
        column.fall_ps[g] = delays.fall_ps[g * count + b];
      }
      sim.run(support::BitVector(inputs, challenges[b]), column, states);
      for (std::size_t g = 0; g < gates; ++g) {
        const auto id = static_cast<GateId>(g);
        ASSERT_EQ(slice.value(out, id, b), states[g].value)
            << "count " << count << " gate " << g << " lane " << b;
        ASSERT_EQ(slice.time_ps(out, id, b), states[g].time_ps)
            << "count " << count << " gate " << g << " lane " << b;
      }
    }
  }
}

TEST(BitSlice, WordPackMatchesBitVectorPack) {
  // The word packer's contract against the BitVector packer: same layout
  // for every batch size (the 1..8-lane block included), bits at or above
  // num_inputs ignored, and exactly num_inputs * nwords words written.
  support::Xoshiro256pp rng(97);
  constexpr std::uint64_t kCanary = 0xC0FFEE0123456789ULL;
  for (const std::size_t inputs : {1u, 7u, 8u, 9u, 63u, 64u}) {
    for (std::size_t count = 1; count <= 130; ++count) {
      std::vector<std::uint64_t> raw(count);
      std::vector<support::BitVector> challenges;
      for (auto& c : raw) {
        c = rng.next();  // junk above `inputs` must not leak into lanes
        const std::uint64_t low =
            inputs == 64 ? c : c & ((std::uint64_t{1} << inputs) - 1);
        support::BitVector bits(inputs);
        for (std::size_t i = 0; i < inputs; ++i) bits.set(i, (low >> i) & 1);
        challenges.push_back(std::move(bits));
      }
      std::vector<std::uint64_t> expected;
      pack_input_words(challenges.data(), count, inputs, expected);
      const std::size_t nwords = (count + 63) / 64;
      ASSERT_EQ(expected.size(), inputs * nwords);

      std::vector<std::uint64_t> got(expected.size() + 1, kCanary);
      pack_input_words(raw.data(), count, inputs, got.data());
      ASSERT_EQ(got.back(), kCanary)
          << "inputs " << inputs << " count " << count;
      got.pop_back();
      ASSERT_EQ(got, expected) << "inputs " << inputs << " count " << count;
    }
  }
}

}  // namespace
}  // namespace pufatt::timingsim

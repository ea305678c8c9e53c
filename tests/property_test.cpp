// Cross-module property tests: randomized circuits, codec cross-checks and
// reference-model fuzzing.  These guard the invariants the system-level
// arguments rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>

#include "ecc/reed_muller.hpp"
#include "netlist/builder.hpp"
#include "netlist/techmap.hpp"
#include "support/bitvec.hpp"
#include "support/rng.hpp"
#include "timingsim/bitslice.hpp"
#include "timingsim/timing_sim.hpp"
#include "to_bits.hpp"

namespace pufatt {
namespace {

using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;
using support::BitVector;
using support::Xoshiro256pp;
using testref::to_bits;

/// Random DAG circuit generator: `inputs` primary inputs, `gates` random
/// gates over earlier nets.
Netlist random_circuit(std::size_t inputs, std::size_t gates,
                       Xoshiro256pp& rng) {
  Netlist net;
  for (std::size_t i = 0; i < inputs; ++i) net.add_input("i");
  const GateKind kinds[] = {GateKind::kBuf,  GateKind::kNot, GateKind::kAnd,
                            GateKind::kOr,   GateKind::kNand, GateKind::kNor,
                            GateKind::kXor,  GateKind::kXnor, GateKind::kMux};
  for (std::size_t g = 0; g < gates; ++g) {
    const GateKind kind = kinds[rng.uniform_u64(std::size(kinds))];
    const auto pick = [&] {
      return static_cast<GateId>(rng.uniform_u64(net.num_gates()));
    };
    GateId id = 0;
    switch (netlist::required_fanins(kind)) {
      case 1:
        id = net.add_gate(kind, {pick()});
        break;
      case 3:
        id = net.add_gate(kind, {pick(), pick(), pick()});
        break;
      default: {
        const std::size_t fanins = 2 + rng.uniform_u64(3);
        std::vector<GateId> f;
        for (std::size_t k = 0; k < fanins; ++k) f.push_back(pick());
        id = net.add_gate(kind, std::move(f));
        break;
      }
    }
    if (g + 8 >= gates) net.add_output("o", id);
  }
  return net;
}

class RandomCircuit : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuit, TimingValuesMatchFunctionalModel) {
  // Whatever the delays, the timing simulator's settled values must equal
  // the pure functional evaluation.
  Xoshiro256pp rng(1000 + GetParam());
  const auto net = random_circuit(6, 60, rng);
  timingsim::TimingSimulator sim(net);
  timingsim::DelaySet delays;
  delays.rise_ps.resize(net.num_gates());
  delays.fall_ps.resize(net.num_gates());
  for (std::size_t g = 0; g < net.num_gates(); ++g) {
    delays.rise_ps[g] = rng.uniform(1.0, 30.0);
    delays.fall_ps[g] = rng.uniform(1.0, 30.0);
  }
  std::vector<timingsim::SignalState> states;
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < net.num_inputs(); ++i) {
      in.push_back(rng.bernoulli(0.5));
    }
    const auto golden = net.evaluate(in);
    sim.run(to_bits(in), delays, states);
    for (std::size_t g = 0; g < golden.size(); ++g) {
      ASSERT_EQ(states[g].value, golden[g]) << "gate " << g;
    }
  }
}

TEST_P(RandomCircuit, SettlingTimesAreCausal) {
  // Every gate settles no earlier than the earliest input could reach it:
  // time >= 0 for anything fed (transitively) by a primary input, and
  // settle times never regress below a fanin that the value depends on
  // being determined... minimally: all times are finite-or-kAlwaysSettled
  // and non-negative when finite.
  Xoshiro256pp rng(2000 + GetParam());
  const auto net = random_circuit(5, 50, rng);
  timingsim::TimingSimulator sim(net);
  std::vector<double> delays(net.num_gates(), 1.0);
  for (std::size_t g = 0; g < net.num_gates(); ++g) {
    const auto kind = net.gate(static_cast<GateId>(g)).kind;
    if (kind == GateKind::kInput || kind == GateKind::kConst0 ||
        kind == GateKind::kConst1) {
      delays[g] = 0.0;
    }
  }
  std::vector<timingsim::SignalState> states;
  sim.run(to_bits(std::vector<bool>(net.num_inputs(), true)), delays, states);
  for (std::size_t g = 0; g < states.size(); ++g) {
    const double t = states[g].time_ps;
    ASSERT_TRUE(t == timingsim::kAlwaysSettled || t >= 0.0);
  }
}

TEST_P(RandomCircuit, UniformDelayScalingScalesTimes) {
  // Multiplying every delay by a constant multiplies every finite settle
  // time by the same constant (timing is homogeneous of degree 1).
  Xoshiro256pp rng(3000 + GetParam());
  const auto net = random_circuit(4, 40, rng);
  timingsim::TimingSimulator sim(net);
  std::vector<double> delays(net.num_gates());
  for (auto& d : delays) d = rng.uniform(1.0, 10.0);
  for (std::size_t g = 0; g < net.num_gates(); ++g) {
    const auto kind = net.gate(static_cast<GateId>(g)).kind;
    if (kind == GateKind::kInput || kind == GateKind::kConst0 ||
        kind == GateKind::kConst1) {
      delays[g] = 0.0;
    }
  }
  auto scaled = delays;
  for (auto& d : scaled) d *= 3.0;
  std::vector<bool> in;
  for (std::size_t i = 0; i < net.num_inputs(); ++i) {
    in.push_back(rng.bernoulli(0.5));
  }
  std::vector<timingsim::SignalState> s1, s3;
  sim.run(to_bits(in), delays, s1);
  sim.run(to_bits(in), scaled, s3);
  for (std::size_t g = 0; g < s1.size(); ++g) {
    if (s1[g].time_ps == timingsim::kAlwaysSettled) {
      ASSERT_EQ(s3[g].time_ps, timingsim::kAlwaysSettled);
    } else {
      ASSERT_NEAR(s3[g].time_ps, 3.0 * s1[g].time_ps, 1e-9);
    }
  }
}

TEST_P(RandomCircuit, BitSliceSharedModeBitIdenticalToScalar) {
  // The bit-sliced engine (64 lanes per word) shares the exactness
  // contract: identical doubles to the scalar simulator, == not NEAR.
  // Batches up to ~140 lanes cover multi-word states and ragged tails.
  Xoshiro256pp rng(8000 + GetParam());
  const auto net = random_circuit(8, 70, rng);
  timingsim::TimingSimulator sim(net);
  timingsim::DelaySet delays;
  delays.rise_ps.resize(net.num_gates());
  delays.fall_ps.resize(net.num_gates());
  for (std::size_t g = 0; g < net.num_gates(); ++g) {
    delays.rise_ps[g] = rng.uniform(1.0, 30.0);
    delays.fall_ps[g] = rng.uniform(1.0, 30.0);
  }
  const timingsim::BitSliceEngine slice(sim.compiled(), delays);
  const std::size_t batch = 1 + rng.uniform_u64(140);
  std::vector<BitVector> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(BitVector::random(net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  timingsim::pack_input_words(challenges.data(), batch, net.num_inputs(),
                              words);
  timingsim::BitSliceState out;
  slice.run(words.data(), batch, out);
  std::vector<timingsim::SignalState> states;
  for (std::size_t b = 0; b < batch; ++b) {
    sim.run(challenges[b], delays, states);
    for (std::size_t g = 0; g < net.num_gates(); ++g) {
      const auto id = static_cast<GateId>(g);
      ASSERT_EQ(slice.value(out, id, b), states[g].value)
          << "gate " << g << " lane " << b;
      ASSERT_EQ(slice.time_ps(out, id, b), states[g].time_ps)
          << "gate " << g << " lane " << b;
    }
  }
}

TEST_P(RandomCircuit, BitSliceLaneModeMatchesScalar) {
  // Lane-delay mode: every lane carries its own delay realization and must
  // equal a scalar run with that lane's column of the BatchDelays matrix,
  // value and time on every gate.  Batches up to 100 lanes cover
  // multi-word states and ragged tails.
  Xoshiro256pp rng(9000 + GetParam());
  const auto net = random_circuit(6, 50, rng);
  timingsim::TimingSimulator sim(net);
  const timingsim::BitSliceEngine slice(sim.compiled());
  const std::size_t batch = 1 + rng.uniform_u64(100);
  const std::size_t gates = net.num_gates();
  timingsim::BatchDelays delays;
  delays.batch = batch;
  delays.rise_ps.resize(gates * batch);
  delays.fall_ps.resize(gates * batch);
  for (auto& d : delays.rise_ps) d = rng.uniform(1.0, 20.0);
  for (auto& d : delays.fall_ps) d = rng.uniform(1.0, 20.0);
  std::vector<BitVector> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(BitVector::random(net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  timingsim::pack_input_words(challenges.data(), batch, net.num_inputs(),
                              words);
  timingsim::BitSliceState out;
  slice.run(words.data(), batch, delays, out);
  timingsim::DelaySet column;
  column.rise_ps.resize(gates);
  column.fall_ps.resize(gates);
  std::vector<timingsim::SignalState> states;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t g = 0; g < gates; ++g) {
      column.rise_ps[g] = delays.rise_ps[g * batch + b];
      column.fall_ps[g] = delays.fall_ps[g * batch + b];
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
}

TEST_P(RandomCircuit, BitSliceFixedCountsMatchScalarInBothModes) {
  // The random-batch suites above rarely draw the served shape (exactly 8
  // lanes, one 8-lane block of the time kernels) or n-ary, Mux and Xnor
  // gates at one word.  Fixed counts pin those shapes down: 1 and 5 lanes
  // (short blocks), 8 (one block), 13 (a full block, then a 5-lane partial
  // one), 64 and 65 (a full word, then a second word).  Both modes run
  // through one reused state.
  Xoshiro256pp rng(10000 + GetParam());
  const auto net = random_circuit(8, 70, rng);
  timingsim::TimingSimulator sim(net);
  const std::size_t gates = net.num_gates();
  timingsim::DelaySet shared;
  shared.rise_ps.resize(gates);
  shared.fall_ps.resize(gates);
  for (std::size_t g = 0; g < gates; ++g) {
    shared.rise_ps[g] = rng.uniform(1.0, 30.0);
    shared.fall_ps[g] = rng.uniform(1.0, 30.0);
  }
  const timingsim::BitSliceEngine shared_slice(sim.compiled(), shared);
  const timingsim::BitSliceEngine lane_slice(sim.compiled());

  timingsim::BitSliceState out;
  timingsim::DelaySet column;
  column.rise_ps.resize(gates);
  column.fall_ps.resize(gates);
  std::vector<timingsim::SignalState> states;
  const auto expect_lane = [&](const timingsim::BitSliceEngine& slice,
                               std::size_t count, std::size_t b) {
    for (std::size_t g = 0; g < gates; ++g) {
      const auto id = static_cast<GateId>(g);
      ASSERT_EQ(slice.value(out, id, b), states[g].value)
          << "count " << count << " gate " << g << " lane " << b;
      ASSERT_EQ(slice.time_ps(out, id, b), states[g].time_ps)
          << "count " << count << " gate " << g << " lane " << b;
    }
  };
  for (const std::size_t count : {1u, 5u, 8u, 13u, 64u, 65u, 8u}) {
    std::vector<BitVector> challenges;
    std::vector<std::uint64_t> challenge_words;
    for (std::size_t b = 0; b < count; ++b) {
      challenges.push_back(BitVector::random(net.num_inputs(), rng));
      challenge_words.push_back(challenges.back().to_u64());
    }
    std::vector<std::uint64_t> words(net.num_inputs() * ((count + 63) / 64));
    timingsim::pack_input_words(challenge_words.data(), count,
                                net.num_inputs(), words.data());

    shared_slice.run(words.data(), count, out);
    for (std::size_t b = 0; b < count; ++b) {
      sim.run(challenges[b], shared, states);
      ASSERT_NO_FATAL_FAILURE(expect_lane(shared_slice, count, b));
    }

    timingsim::BatchDelays delays;
    delays.batch = count;
    delays.rise_ps.resize(gates * count);
    delays.fall_ps.resize(gates * count);
    for (auto& d : delays.rise_ps) d = rng.uniform(1.0, 20.0);
    for (auto& d : delays.fall_ps) d = rng.uniform(1.0, 20.0);
    lane_slice.run(words.data(), count, delays, out);
    for (std::size_t b = 0; b < count; ++b) {
      for (std::size_t g = 0; g < gates; ++g) {
        column.rise_ps[g] = delays.rise_ps[g * count + b];
        column.fall_ps[g] = delays.fall_ps[g * count + b];
      }
      sim.run(challenges[b], column, states);
      ASSERT_NO_FATAL_FAILURE(expect_lane(lane_slice, count, b));
    }
  }
}

TEST_P(RandomCircuit, TechmapNeverExceedsGateCount) {
  Xoshiro256pp rng(4000 + GetParam());
  const auto net = random_circuit(6, 80, rng);
  EXPECT_LE(netlist::estimate_luts(net), net.logic_gate_count());
  EXPECT_GE(netlist::estimate_luts(net), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuit, ::testing::Range(0, 8));

// ------------------------------------------------------- codec cross-checks

TEST(CodecCross, Rm15MatchesExhaustiveNearestCodeword) {
  // ML decoding must return a codeword at minimum Hamming distance from
  // the input (checked exhaustively against all 64 codewords).
  const ecc::ReedMuller1 rm(5);
  std::vector<BitVector> codewords;
  for (std::uint64_t m = 0; m < 64; ++m) {
    codewords.push_back(rm.encode(BitVector(6, m)));
  }
  Xoshiro256pp rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const auto word = BitVector::random(32, rng);
    const auto decoded = rm.decode_to_codeword(word);
    ASSERT_TRUE(decoded.has_value());
    std::size_t best = 33;
    for (const auto& cw : codewords) {
      best = std::min(best, word.hamming_distance(cw));
    }
    EXPECT_EQ(decoded->hamming_distance(word), best);
  }
}

TEST(CodecCross, SoftDecodeWithUniformConfidenceMatchesHard) {
  const ecc::ReedMuller1 rm(5);
  Xoshiro256pp rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const auto word = BitVector::random(32, rng);
    std::vector<double> llr(32);
    for (std::size_t i = 0; i < 32; ++i) llr[i] = word.get(i) ? -1.0 : 1.0;
    const auto hard = rm.decode_to_codeword(word);
    const auto soft = rm.decode_soft_to_codeword(llr);
    ASSERT_TRUE(hard && soft);
    // Equal-confidence soft decoding picks a codeword at the same distance
    // (ties may break differently).
    EXPECT_EQ(soft->hamming_distance(word), hard->hamming_distance(word));
  }
}

// --------------------------------------------------- BitVector fuzz vs ref

TEST(BitVectorFuzz, MatchesBitsetReference) {
  Xoshiro256pp rng(10);
  for (int trial = 0; trial < 200; ++trial) {
    std::bitset<96> ref_a, ref_b;
    BitVector a(96), b(96);
    for (std::size_t i = 0; i < 96; ++i) {
      const bool va = rng.bernoulli(0.5);
      const bool vb = rng.bernoulli(0.5);
      ref_a[i] = va;
      ref_b[i] = vb;
      a.set(i, va);
      b.set(i, vb);
    }
    EXPECT_EQ((a ^ b).popcount(), (ref_a ^ ref_b).count());
    EXPECT_EQ((a & b).popcount(), (ref_a & ref_b).count());
    EXPECT_EQ((a | b).popcount(), (ref_a | ref_b).count());
    EXPECT_EQ(a.popcount(), ref_a.count());
    EXPECT_EQ(a.hamming_distance(b), (ref_a ^ ref_b).count());
    // Slice/concat round trip.
    const auto lo = a.slice(0, 40);
    const auto hi = a.slice(40, 56);
    EXPECT_EQ(lo.concat(hi), a);
  }
}

// ------------------------------------------- bit-column transpose helpers

TEST(BitColumns, Transpose64x64MatchesNaiveAndIsInvolution) {
  Xoshiro256pp rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t m[64];
    for (auto& w : m) w = rng.next();
    std::uint64_t t[64];
    std::copy(std::begin(m), std::end(m), std::begin(t));
    support::transpose_64x64(t);
    for (int r = 0; r < 64; ++r) {
      for (int c = 0; c < 64; ++c) {
        ASSERT_EQ((t[r] >> c) & 1ULL, (m[c] >> r) & 1ULL)
            << "row " << r << " col " << c;
      }
    }
    support::transpose_64x64(t);  // involution: transpose twice = identity
    for (int r = 0; r < 64; ++r) ASSERT_EQ(t[r], m[r]);
  }
}

TEST(BitColumns, PackWritesColumnsWithStrideAndPartialBlocks) {
  Xoshiro256pp rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t count = 1 + rng.uniform_u64(64);
    const std::size_t nbits = 1 + rng.uniform_u64(150);
    const std::size_t stride = 1 + rng.uniform_u64(3);
    std::vector<BitVector> vecs;
    for (std::size_t l = 0; l < count; ++l) {
      vecs.push_back(BitVector::random(nbits, rng));
    }
    std::vector<std::uint64_t> cols(nbits * stride, ~0ULL);
    support::pack_bit_columns(vecs.data(), count, nbits, cols.data(), stride);
    for (std::size_t i = 0; i < nbits; ++i) {
      for (std::size_t l = 0; l < 64; ++l) {
        const bool expect = l < count && vecs[l].get(i);
        ASSERT_EQ((cols[i * stride] >> l) & 1ULL, expect ? 1ULL : 0ULL)
            << "bit " << i << " lane " << l;  // tail lanes must be zeroed
      }
    }
  }
}

TEST(BitColumns, PackValidatesWidthAndLaneCount) {
  BitVector vecs[2] = {BitVector(8), BitVector(9)};  // ragged widths
  std::uint64_t out[9] = {};
  EXPECT_THROW(support::pack_bit_columns(vecs, 2, 8, out, 1),
               std::invalid_argument);
  std::vector<BitVector> many(65, BitVector(4));
  std::uint64_t out4[4] = {};
  EXPECT_THROW(support::pack_bit_columns(many.data(), 65, 4, out4, 1),
               std::invalid_argument);
  // pack_input_words inherits the width check per 64-lane block.
  BitVector ragged[2] = {BitVector(6), BitVector(7)};
  std::vector<std::uint64_t> words;
  EXPECT_THROW(timingsim::pack_input_words(ragged, 2, 6, words),
               std::invalid_argument);
}

// ----------------------------------------- adder exhaustive small widths

TEST(AdderExhaustive, ThreeBitFullTruthTable) {
  Netlist net;
  std::vector<GateId> a, b;
  for (int i = 0; i < 3; ++i) a.push_back(net.add_input("a"));
  for (int i = 0; i < 3; ++i) b.push_back(net.add_input("b"));
  const GateId cin = net.add_gate(GateKind::kConst0, {});
  const auto ports = netlist::build_ripple_carry_adder(net, a, b, cin, {});
  for (unsigned va = 0; va < 8; ++va) {
    for (unsigned vb = 0; vb < 8; ++vb) {
      std::vector<bool> in;
      for (int i = 0; i < 3; ++i) in.push_back((va >> i) & 1);
      for (int i = 0; i < 3; ++i) in.push_back((vb >> i) & 1);
      const auto v = net.evaluate(in);
      unsigned sum = 0;
      for (int i = 0; i < 3; ++i) sum |= (v[ports.sum[i]] ? 1u : 0u) << i;
      sum |= (v[ports.carry_out] ? 1u : 0u) << 3;
      EXPECT_EQ(sum, va + vb);
    }
  }
}

}  // namespace
}  // namespace pufatt

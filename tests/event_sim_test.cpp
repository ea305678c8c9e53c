// Event-driven engine tests and cross-validation against the fast
// floating-mode settling engine.
#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "support/rng.hpp"
#include "timingsim/event_sim.hpp"
#include "timingsim/timing_sim.hpp"
#include "to_bits.hpp"

namespace pufatt::timingsim {
namespace {

using netlist::GateId;
using netlist::GateKind;
using netlist::Netlist;
using support::Xoshiro256pp;
using testref::to_bits;

DelaySet uniform_delays(const Netlist& net, double d) {
  DelaySet delays;
  delays.rise_ps.assign(net.num_gates(), d);
  delays.fall_ps.assign(net.num_gates(), d);
  for (std::size_t g = 0; g < net.num_gates(); ++g) {
    const auto kind = net.gate(static_cast<GateId>(g)).kind;
    if (kind == GateKind::kInput || kind == GateKind::kConst0 ||
        kind == GateKind::kConst1) {
      delays.rise_ps[g] = 0.0;
      delays.fall_ps[g] = 0.0;
    }
  }
  return delays;
}

TEST(EventSim, NoInputChangeNoEvents) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId x = net.add_gate(GateKind::kXor, {a, b});
  EventSimulator sim(net);
  const auto states = sim.run({true, false}, {true, false},
                              uniform_delays(net, 2.0));
  EXPECT_EQ(states[x].transitions, 0u);
  EXPECT_TRUE(states[x].value);
}

TEST(EventSim, SingleTransitionPropagates) {
  Netlist net;
  const GateId a = net.add_input("a");
  GateId sig = a;
  for (int i = 0; i < 4; ++i) sig = net.add_gate(GateKind::kBuf, {sig});
  EventSimulator sim(net);
  const auto states = sim.run({false}, {true}, uniform_delays(net, 3.0));
  EXPECT_TRUE(states[sig].value);
  EXPECT_DOUBLE_EQ(states[sig].settle_ps, 12.0);
  EXPECT_EQ(states[sig].transitions, 1u);
}

TEST(EventSim, RiseAndFallDelaysDiffer) {
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId buf = net.add_gate(GateKind::kBuf, {a});
  EventSimulator sim(net);
  auto delays = uniform_delays(net, 1.0);
  delays.rise_ps[buf] = 5.0;
  delays.fall_ps[buf] = 9.0;
  const auto rise = sim.run({false}, {true}, delays);
  EXPECT_DOUBLE_EQ(rise[buf].settle_ps, 5.0);
  const auto fall = sim.run({true}, {false}, delays);
  EXPECT_DOUBLE_EQ(fall[buf].settle_ps, 9.0);
}

TEST(EventSim, StaticHazardProducesGlitch) {
  // Classic hazard: f = (a AND b) OR (NOT a AND b) with b=1 while a flips.
  // The OR output logically stays 1 but glitches when the AND paths race.
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId na = net.add_gate(GateKind::kNot, {a});
  const GateId and1 = net.add_gate(GateKind::kAnd, {a, b});
  const GateId and2 = net.add_gate(GateKind::kAnd, {na, b});
  const GateId out = net.add_gate(GateKind::kOr, {and1, and2});
  EventSimulator sim(net);
  auto delays = uniform_delays(net, 1.0);
  delays.rise_ps[na] = 4.0;  // slow inverter: and1 falls before and2 rises
  delays.fall_ps[na] = 4.0;
  const auto states = sim.run({true, true}, {false, true}, delays);
  EXPECT_TRUE(states[out].value);
  EXPECT_GE(states[out].transitions, 2u) << "expected a 1->0->1 glitch";
}

TEST(EventSim, InertialFilteringSwallowsShortPulses) {
  // Same hazard circuit, but the OR is slower than the input overlap: the
  // dip is shorter than the gate's inertial delay and must be filtered.
  Netlist net;
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId na = net.add_gate(GateKind::kNot, {a});
  const GateId and1 = net.add_gate(GateKind::kAnd, {a, b});
  const GateId and2 = net.add_gate(GateKind::kAnd, {na, b});
  const GateId out = net.add_gate(GateKind::kOr, {and1, and2});
  EventSimulator sim(net);
  auto delays = uniform_delays(net, 1.0);
  delays.rise_ps[na] = 1.5;
  delays.fall_ps[na] = 1.5;
  delays.rise_ps[out] = 10.0;  // much slower than the 1.5 ps dip
  delays.fall_ps[out] = 10.0;
  const auto states = sim.run({true, true}, {false, true}, delays);
  EXPECT_TRUE(states[out].value);
  EXPECT_EQ(states[out].transitions, 0u) << "pulse must be filtered";
}

TEST(EventSim, ValidatesSizes) {
  Netlist net;
  net.add_input("a");
  EventSimulator sim(net);
  EXPECT_THROW(sim.run({}, {true}, uniform_delays(net, 1.0)),
               std::invalid_argument);
  DelaySet bad;
  EXPECT_THROW(sim.run({true}, {false}, bad), std::invalid_argument);
}

// ------------------------------------------------- cross-engine validation

class CrossEngine : public ::testing::TestWithParam<int> {};

TEST_P(CrossEngine, FinalValuesAgreeOnAluPuf) {
  const auto circuit = netlist::build_alu_puf_circuit(16);
  const TimingSimulator fast(circuit.net);
  const EventSimulator slow(circuit.net);
  Xoshiro256pp rng(500 + GetParam());
  DelaySet delays;
  delays.rise_ps.resize(circuit.net.num_gates());
  delays.fall_ps.resize(circuit.net.num_gates());
  for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
    const auto kind = circuit.net.gate(static_cast<GateId>(g)).kind;
    const bool free = kind == GateKind::kInput || kind == GateKind::kConst0 ||
                      kind == GateKind::kConst1;
    delays.rise_ps[g] = free ? 0.0 : rng.uniform(5.0, 30.0);
    delays.fall_ps[g] = free ? 0.0 : rng.uniform(5.0, 30.0);
  }
  std::vector<SignalState> fast_states;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<bool> prev, next;
    for (std::size_t i = 0; i < circuit.net.num_inputs(); ++i) {
      prev.push_back(rng.bernoulli(0.5));
      next.push_back(rng.bernoulli(0.5));
    }
    fast.run(to_bits(next), delays, fast_states);
    const auto slow_states = slow.run(prev, next, delays);
    for (std::size_t g = 0; g < fast_states.size(); ++g) {
      ASSERT_EQ(slow_states[g].value, fast_states[g].value) << "gate " << g;
    }
  }
}

TEST_P(CrossEngine, FloatingModeIsConservativeForSettledRaces) {
  // On the raced outputs, the event engine's settle time never exceeds the
  // floating-mode estimate by more than the glitch slack, and for zero-to-
  // challenge transitions (monotone-ish) they track closely.  We check the
  // weaker, always-true bound: event settle <= fast settle (floating mode
  // charges the full determination chain; real transitions can only arrive
  // earlier or be filtered).
  const auto circuit = netlist::build_alu_puf_circuit(8);
  const TimingSimulator fast(circuit.net);
  const EventSimulator slow(circuit.net);
  Xoshiro256pp rng(900 + GetParam());
  DelaySet delays;
  delays.rise_ps.resize(circuit.net.num_gates());
  delays.fall_ps.resize(circuit.net.num_gates());
  for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
    const auto kind = circuit.net.gate(static_cast<GateId>(g)).kind;
    const bool free = kind == GateKind::kInput || kind == GateKind::kConst0 ||
                      kind == GateKind::kConst1;
    const double d = free ? 0.0 : rng.uniform(10.0, 20.0);
    delays.rise_ps[g] = d;
    delays.fall_ps[g] = d;
  }
  std::vector<SignalState> fast_states;
  const std::vector<bool> zeros(circuit.net.num_inputs(), false);
  int compared = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<bool> next;
    for (std::size_t i = 0; i < circuit.net.num_inputs(); ++i) {
      next.push_back(rng.bernoulli(0.5));
    }
    fast.run(to_bits(next), delays, fast_states);
    const auto slow_states = slow.run(zeros, next, delays);
    for (const auto& raced : {circuit.race0, circuit.race1}) {
      for (const auto gate : raced) {
        if (slow_states[gate].transitions == 0) continue;  // no change
        EXPECT_LE(slow_states[gate].settle_ps,
                  fast_states[gate].time_ps + 1e-9)
            << "gate " << gate;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngine, ::testing::Range(0, 5));

}  // namespace
}  // namespace pufatt::timingsim

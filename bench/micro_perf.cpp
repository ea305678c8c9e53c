// Engineering micro-benchmarks (google-benchmark): throughput of every
// performance-relevant primitive.  Not a paper table — evidence that the
// simulation substrate sustains the million-challenge experiment sizes the
// paper's methodology requires.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cpu/assembler.hpp"
#include "swat/program.hpp"

#include "alupuf/pipeline.hpp"
#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "core/protocol.hpp"
#include "ecc/helper_data.hpp"
#include "ecc/reed_muller.hpp"
#include "mlattack/logreg.hpp"
#include "swat/checksum.hpp"
#include "timingsim/bitslice.hpp"

using namespace pufatt;

namespace {

const ecc::ReedMuller1& rm5() {
  static const ecc::ReedMuller1 code(5);
  return code;
}

alupuf::AluPufConfig puf32() {
  alupuf::AluPufConfig config;
  config.width = 32;
  return config;
}

void BM_AluPufRawEval(benchmark::State& state) {
  const alupuf::AluPuf puf(puf32(), 1);
  support::Xoshiro256pp rng(2);
  const auto env = variation::Environment::nominal();
  const auto challenge = support::BitVector::random(64, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(puf.eval(challenge, env, rng));
  }
}
BENCHMARK(BM_AluPufRawEval);

void BM_PufDeviceQuery(benchmark::State& state) {
  const alupuf::PufDevice device(puf32(), 1, rm5());
  support::Xoshiro256pp rng(3);
  const auto env = variation::Environment::nominal();
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.query(++x, env, rng));
  }
}
BENCHMARK(BM_PufDeviceQuery);

void BM_PufEmulate(benchmark::State& state) {
  const alupuf::PufDevice device(puf32(), 1, rm5());
  const alupuf::PufEmulator emulator(32, device.export_model(), rm5());
  support::Xoshiro256pp rng(4);
  const auto out = device.query(42, variation::Environment::nominal(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emulator.emulate(42, out.helpers));
  }
}
BENCHMARK(BM_PufEmulate);

/// One recorded honest PUF() call on the served (small) profile: the
/// device's 8 raw challenges and helper words at nominal V/T, and the
/// verifier's emulator for that die.
struct RecordedCall {
  RecordedCall()
      : profile(core::DistributedParams::small_profile()),
        device(profile.puf_config, 8, rm5()),
        emulator(profile.puf_config.width, device.export_model(), rm5(),
                 profile.puf_config.layout) {
    support::Xoshiro256pp rng(17);
    for (auto& c : challenges) c = rng.next();
    alupuf::AluPufBatchScratch scratch;
    const auto out = device.query_words(
        challenges, variation::Environment::nominal(), rng, nullptr, scratch);
    helpers = out.helpers;
    z = out.z;
  }

  core::DeviceProfile profile;
  alupuf::PufDevice device;
  alupuf::PufEmulator emulator;
  alupuf::CallWords challenges{};
  alupuf::CallWords helpers{};
  std::uint64_t z = 0;
};

void BM_EmulateWords(benchmark::State& state) {
  // The verifier's per-call path: one bit-sliced soft batch, 8 helper-data
  // reconstructions, the distance budgets and the obfuscation, in a
  // reused engine state.
  const RecordedCall call;
  timingsim::BitSliceState engine;
  if (call.emulator.emulate_words(call.challenges, call.helpers, engine).z !=
      call.z) {
    state.SkipWithError("recorded honest call did not verify");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        call.emulator.emulate_words(call.challenges, call.helpers, engine));
  }
}
BENCHMARK(BM_EmulateWords);

void BM_ReproduceSoftWord(benchmark::State& state) {
  // One call's 8 soft reconstructions, on the soft batch the emulator
  // computes for a recorded honest call.
  const RecordedCall call;
  const ecc::SyndromeHelper helper(rm5());
  const std::size_t width = call.profile.puf_config.width;
  std::vector<double> soft(call.challenges.size() * width);
  timingsim::BitSliceState engine;
  call.emulator.raw_emulator().eval_soft_words(
      call.challenges.data(), call.challenges.size(), soft.data(), engine);
  for (auto _ : state) {
    for (std::size_t r = 0; r < call.helpers.size(); ++r) {
      benchmark::DoNotOptimize(
          helper.reproduce_soft_word(soft.data() + r * width, call.helpers[r]));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(call.helpers.size()));
}
BENCHMARK(BM_ReproduceSoftWord);

void BM_RmSoftDecode(benchmark::State& state) {
  support::Xoshiro256pp rng(5);
  std::vector<double> llr(32);
  for (auto& v : llr) v = rng.gaussian();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rm5().decode_soft_to_codeword(llr));
  }
}
BENCHMARK(BM_RmSoftDecode);

void BM_SyndromeHelperReproduce(benchmark::State& state) {
  const ecc::SyndromeHelper helper(rm5());
  support::Xoshiro256pp rng(7);
  const auto y = support::BitVector::random(32, rng);
  const auto h = helper.generate(y);
  auto ref = y;
  ref.flip(3);
  ref.flip(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(helper.reproduce(ref, h));
  }
}
BENCHMARK(BM_SyndromeHelperReproduce);

void BM_SwatChecksumNative(benchmark::State& state) {
  swat::SwatParams params;
  params.rounds = 2048;
  params.attest_words = 4096;
  std::vector<std::uint32_t> image(params.attest_words, 0xABCD1234u);
  const auto puf = [](const std::array<std::uint64_t, 8>&) {
    return std::optional<std::uint32_t>{0x5555AAAAu};
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(swat::compute_checksum(image, 99, params, puf));
  }
  state.SetItemsProcessed(state.iterations() * params.rounds);
}
BENCHMARK(BM_SwatChecksumNative);

void BM_Pr32SimulatedCycles(benchmark::State& state) {
  // Host-side throughput of the cycle-accurate PR32 interpreter.
  const auto params = swat::SwatParams{.rounds = 1024, .attest_words = 2048};
  const auto layout = swat::SwatLayout::standard(params);
  const auto program =
      cpu::assemble(swat::generate_swat_source(params, layout));
  struct Stub final : cpu::PufPort {
    void start() override {}
    void feed(std::uint64_t, double) override {}
    std::uint32_t finish(std::vector<std::uint32_t>& h) override {
      h.assign(8, 0);
      return 0;
    }
  } stub;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    cpu::Machine machine(8192);
    machine.load(program.words);
    machine.set_mem(layout.seed_addr, 1);
    machine.attach_puf(&stub);
    const auto result = machine.run(100'000'000);
    cycles += result.cycles;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_Pr32SimulatedCycles);

void BM_FullAttestationRoundTrip(benchmark::State& state) {
  auto profile = core::DeviceProfile::standard();
  profile.swat.rounds = 512;
  profile.swat.attest_words = 1024;
  profile.layout = swat::SwatLayout::standard(profile.swat);
  const alupuf::PufDevice device(profile.puf_config, 8, rm5());
  const auto record = core::enroll(
      device, profile,
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(500, 3)));
  const core::Verifier verifier(record, rm5());
  core::CpuProver prover(device, record, core::CpuProver::Variant::kHonest, 9);
  support::Xoshiro256pp rng(10);
  for (auto _ : state) {
    const auto request = verifier.make_request(rng);
    const auto outcome = prover.respond(request);
    benchmark::DoNotOptimize(
        verifier.verify(request, outcome.response, 0.0));
  }
}
BENCHMARK(BM_FullAttestationRoundTrip);

// A verifier-cache miss, layer by layer: the core::Verifier build over a
// registry snapshot (as service::EmulatorCache runs it on a miss), the
// registry-side snapshot build that derives the device's model once, and
// that derivation's two parts: the nominal delays from H and the
// shared-delay engine planned over them (classification + fused plan) on
// the served 32-bit cone.
const core::EnrollmentRecord& served_record() {
  static const auto record = [] {
    const auto profile = core::DistributedParams::small_profile();
    const alupuf::PufDevice device(profile.puf_config, 8, rm5());
    return core::enroll(
        device, profile,
        core::make_enrolled_image(profile, std::vector<std::uint32_t>(500, 3)));
  }();
  return record;
}

void BM_VerifierBuild(benchmark::State& state) {
  const auto snapshot =
      std::make_shared<const core::DeviceSnapshot>(served_record());
  for (auto _ : state) {
    const core::Verifier verifier(snapshot, rm5());
    benchmark::DoNotOptimize(&verifier);
  }
}
BENCHMARK(BM_VerifierBuild)->Unit(benchmark::kMicrosecond);

void BM_DeviceSnapshotBuild(benchmark::State& state) {
  // Includes copying the record in; DeviceRegistry::store moves its own.
  const auto& record = served_record();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        std::make_shared<const core::DeviceSnapshot>(record));
  }
}
BENCHMARK(BM_DeviceSnapshotBuild)->Unit(benchmark::kMicrosecond);

void BM_DelaysFromTable(benchmark::State& state) {
  const auto& record = served_record();
  for (auto _ : state) {
    benchmark::DoNotOptimize(variation::delays_from_table(
        record.model, variation::Environment::nominal()));
  }
}
BENCHMARK(BM_DelaysFromTable)->Unit(benchmark::kMicrosecond);

void BM_BitsliceEngineBuildShared(benchmark::State& state) {
  // Includes copying the delays in; the snapshot moves its own.
  const auto& record = served_record();
  const auto circuit = alupuf::shared_circuit(32);
  const auto delays = variation::delays_from_table(
      record.model, variation::Environment::nominal());
  for (auto _ : state) {
    const timingsim::BitSliceEngine engine(circuit->cone_sim.compiled(),
                                           delays);
    benchmark::DoNotOptimize(engine.num_plan_ops());
  }
}
BENCHMARK(BM_BitsliceEngineBuildShared)->Unit(benchmark::kMicrosecond);

void BM_CpuProverRespond(benchmark::State& state) {
  // One simulated honest prover run on the served (small) profile: the PR32
  // interpreter plus one PUF() word call per puf_interval rounds.
  const auto profile = core::DistributedParams::small_profile();
  const alupuf::PufDevice device(profile.puf_config, 8, rm5());
  const auto record = core::enroll(
      device, profile,
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(500, 3)));
  core::CpuProver prover(device, record, core::CpuProver::Variant::kHonest, 9);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prover.respond(core::AttestationRequest{++nonce}));
  }
}
BENCHMARK(BM_CpuProverRespond)->Unit(benchmark::kMicrosecond);

void BM_NoiseFillLanes(benchmark::State& state) {
  // The per-gate noise of one PUF() call on the served (small) profile:
  // 8 lanes of jitter over the ALU's gates (385 at width 32), one
  // gaussian_fast() stream per lane, through the lane fill.
  const auto profile = core::DistributedParams::small_profile();
  const alupuf::PufDevice device(profile.puf_config, 8, rm5());
  const auto& chip = device.raw_puf().chip();
  const auto nominal = chip.nominal_delays(variation::Environment::nominal());
  std::vector<support::Xoshiro256pp> lanes;
  for (std::uint64_t x = 0; x < 8; ++x) lanes.emplace_back(16 + x);
  timingsim::BatchDelays delays;
  for (auto _ : state) {
    chip.sample_delays_batch(nominal, profile.puf_config.noise, lanes.data(),
                             lanes.size(), delays);
    benchmark::DoNotOptimize(delays.rise_ps.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(delays.rise_ps.size()));
}
BENCHMARK(BM_NoiseFillLanes)->Unit(benchmark::kMicrosecond);

void BM_TimingSimScalarRun(benchmark::State& state) {
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(12);
  const auto challenge =
      support::BitVector::random(circuit.net.num_inputs(), rng);
  std::vector<timingsim::SignalState> states;
  for (auto _ : state) {
    sim.run(challenge, delays, states);
    benchmark::DoNotOptimize(states.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimingSimScalarRun);

void BM_Transpose64x64(benchmark::State& state) {
  // The bit-slice packing primitive: one 64x64 bit-matrix transpose turns
  // 64 challenge words into 64 lane words (items = lanes per block).
  support::Xoshiro256pp rng(16);
  std::uint64_t m[64];
  for (auto& w : m) w = rng.next();
  for (auto _ : state) {
    support::transpose_64x64(m);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Transpose64x64);

void BM_BitslicePackInputWords(benchmark::State& state) {
  // Full transpose layer cost per evaluation: what the bit-sliced engine
  // charges on top of its kernel to accept BitVector challenges.
  const auto circuit = netlist::build_alu_puf_circuit(32);
  support::Xoshiro256pp rng(17);
  const std::size_t batch = 256;
  std::vector<support::BitVector> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  for (auto _ : state) {
    timingsim::pack_input_words(challenges.data(), batch,
                                circuit.net.num_inputs(), words);
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BitslicePackInputWords);

void BM_BitsliceSharedRun(benchmark::State& state) {
  // Shared-delay bit-sliced kernel (the fleet-emulation path): 64 lanes
  // per word through the levelized schedule, time-rep shortcuts on.
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(18);
  const std::size_t batch = 256;
  std::vector<support::BitVector> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  timingsim::pack_input_words(challenges.data(), batch,
                              circuit.net.num_inputs(), words);
  const timingsim::BitSliceEngine engine(sim.compiled(), delays);
  timingsim::BitSliceState out;
  for (auto _ : state) {
    engine.run(words.data(), batch, out);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BitsliceSharedRun);

void BM_BitsliceLaneRun(benchmark::State& state) {
  // Lane-delay bit-sliced kernel (the noisy device path): every computed
  // gate carries per-lane times, so this isolates the word-parallel value
  // pass + fused AVX time pass against one fixed delay realization.
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(19);
  const std::size_t batch = 256;
  std::vector<support::BitVector> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }
  std::vector<std::uint64_t> words;
  timingsim::pack_input_words(challenges.data(), batch,
                              circuit.net.num_inputs(), words);
  const std::size_t gates = circuit.net.num_gates();
  timingsim::BatchDelays lane_delays;
  lane_delays.batch = batch;
  lane_delays.rise_ps.resize(gates * batch);
  lane_delays.fall_ps.resize(gates * batch);
  for (std::size_t g = 0; g < gates; ++g) {
    for (std::size_t b = 0; b < batch; ++b) {
      const double jitter = 1.0 + 0.01 * rng.uniform();
      lane_delays.rise_ps[g * batch + b] = delays.rise_ps[g] * jitter;
      lane_delays.fall_ps[g * batch + b] = delays.fall_ps[g] * jitter;
    }
  }
  const timingsim::BitSliceEngine engine(sim.compiled());
  timingsim::BitSliceState out;
  for (auto _ : state) {
    engine.run(words.data(), batch, lane_delays, out);
    benchmark::DoNotOptimize(out.values.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BitsliceLaneRun);

// The served shapes: every PUF() call runs exactly 8 lanes of the 32-bit
// ALU, packed from challenge words, through one reused state (the
// verifier in shared-delay mode, the simulated device in lane-delay mode).
constexpr std::size_t kCallLanes = 8;

void BM_PackInputWords8(benchmark::State& state) {
  support::Xoshiro256pp rng(20);
  std::uint64_t challenges[kCallLanes];
  for (auto& c : challenges) c = rng.next();
  std::uint64_t words[64];
  for (auto _ : state) {
    timingsim::pack_input_words(challenges, kCallLanes, 64, words);
    benchmark::DoNotOptimize(words);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCallLanes));
}
BENCHMARK(BM_PackInputWords8);

void BM_BitsliceSharedRun8(benchmark::State& state) {
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(21);
  std::uint64_t challenges[kCallLanes];
  for (auto& c : challenges) c = rng.next();
  std::uint64_t words[64];
  timingsim::pack_input_words(challenges, kCallLanes, 64, words);
  const timingsim::BitSliceEngine engine(sim.compiled(), delays);
  timingsim::BitSliceState out;
  for (auto _ : state) {
    engine.run(words, kCallLanes, out);
    benchmark::DoNotOptimize(out.times.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCallLanes));
}
BENCHMARK(BM_BitsliceSharedRun8);

void BM_BitsliceLaneRun8(benchmark::State& state) {
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 1);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(22);
  std::uint64_t challenges[kCallLanes];
  for (auto& c : challenges) c = rng.next();
  std::uint64_t words[64];
  timingsim::pack_input_words(challenges, kCallLanes, 64, words);
  const std::size_t gates = circuit.net.num_gates();
  timingsim::BatchDelays lane_delays;
  lane_delays.batch = kCallLanes;
  lane_delays.rise_ps.resize(gates * kCallLanes);
  lane_delays.fall_ps.resize(gates * kCallLanes);
  for (std::size_t g = 0; g < gates; ++g) {
    for (std::size_t b = 0; b < kCallLanes; ++b) {
      const double jitter = 1.0 + 0.01 * rng.uniform();
      lane_delays.rise_ps[g * kCallLanes + b] = delays.rise_ps[g] * jitter;
      lane_delays.fall_ps[g * kCallLanes + b] = delays.fall_ps[g] * jitter;
    }
  }
  const timingsim::BitSliceEngine engine(sim.compiled());
  timingsim::BitSliceState out;
  for (auto _ : state) {
    engine.run(words, kCallLanes, lane_delays, out);
    benchmark::DoNotOptimize(out.times.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCallLanes));
}
BENCHMARK(BM_BitsliceLaneRun8);

/// The served (small-profile) device, enrolled, with the clock its record
/// sets: what one prover's PUF() calls run against.
struct ServedDevice {
  core::DeviceProfile profile = core::DistributedParams::small_profile();
  alupuf::PufDevice device{profile.puf_config, 8, rm5()};
  core::EnrollmentRecord record = core::enroll(
      device, profile,
      core::make_enrolled_image(profile, std::vector<std::uint32_t>(500, 3)));
  alupuf::ClockConstraint clock{1e6 / record.profile.base_clock_mhz,
                                record.profile.register_setup_ps};
};

void BM_DeviceQueryWords(benchmark::State& state) {
  // One noisy PUF() call of the simulated device at the enrolled clock:
  // noise fill, lane-delay engine run, arbiter sweep, helper data and
  // obfuscation.
  const ServedDevice served;
  const auto env = variation::Environment::nominal();
  support::Xoshiro256pp rng(24);
  alupuf::CallWords challenges;
  alupuf::AluPufBatchScratch scratch;
  for (auto _ : state) {
    for (auto& c : challenges) c = rng.next();
    benchmark::DoNotOptimize(served.device.query_words(challenges, env, rng,
                                                       &served.clock, scratch));
  }
}
BENCHMARK(BM_DeviceQueryWords)->Unit(benchmark::kMicrosecond);

void BM_ArbiterLanes(benchmark::State& state) {
  // One call's 8 x 32 arbiter decisions at the enrolled clock, from the
  // race times of a real noisy lane-delay run: the lane-row reads and the
  // sweep, as AluPuf runs them.
  const ServedDevice served;
  const auto& puf = served.device.raw_puf();
  const auto& circuit = puf.circuit();
  const auto engine_circuit = alupuf::shared_circuit(
      served.profile.puf_config.width, served.profile.puf_config.layout);
  const auto& engine = engine_circuit->lane_engine;
  const auto nominal =
      puf.chip().nominal_delays(variation::Environment::nominal());
  std::vector<support::Xoshiro256pp> lanes;
  for (std::uint64_t x = 0; x < 8; ++x) lanes.emplace_back(25 + x);
  timingsim::BatchDelays delays;
  puf.chip().sample_delays_batch(nominal, served.profile.puf_config.noise,
                                 lanes.data(), lanes.size(), delays);
  support::Xoshiro256pp rng(26);
  std::uint64_t challenges[kCallLanes];
  for (auto& c : challenges) c = rng.next();
  std::uint64_t words[64];
  timingsim::pack_input_words(challenges, kCallLanes, 64, words);
  timingsim::BitSliceState slice;
  engine.run(words, kCallLanes, delays, slice);
  const std::size_t width = circuit.race0.size();
  std::vector<double> t0(width * kCallLanes), t1(width * kCallLanes);
  const timingsim::Arbiter arbiter(served.profile.puf_config.arbiter);
  const double deadline = served.clock.cycle_ps - served.clock.setup_ps;
  std::uint64_t responses[kCallLanes];
  for (auto _ : state) {
    for (std::size_t i = 0; i < width; ++i) {
      engine.lane_times(slice, circuit.race0[i], &t0[i * kCallLanes]);
      engine.lane_times(slice, circuit.race1[i], &t1[i * kCallLanes]);
    }
    std::fill_n(responses, kCallLanes, 0);
    arbiter.sample_lanes(t0.data(), t1.data(), kCallLanes, width,
                         &deadline, lanes.data(), responses);
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(width * kCallLanes));
}
BENCHMARK(BM_ArbiterLanes);

void BM_AluPufEvalBatch(benchmark::State& state) {
  const alupuf::AluPuf puf(puf32(), 1);
  support::Xoshiro256pp rng(14);
  const auto env = variation::Environment::nominal();
  const std::size_t batch = 64;
  std::vector<alupuf::Challenge> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(support::BitVector::random(64, rng));
  }
  alupuf::AluPufBatchScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(puf.eval_batch(challenges.data(), batch, env,
                                            rng, nullptr, &scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_AluPufEvalBatch);

void BM_EmulatorEvalSoftBatch(benchmark::State& state) {
  const alupuf::AluPuf puf(puf32(), 1);
  const alupuf::AluPufEmulator emulator(32, puf.export_model());
  support::Xoshiro256pp rng(15);
  const std::size_t batch = 8;  // one PUF() call's worth
  std::vector<alupuf::Challenge> challenges;
  for (std::size_t b = 0; b < batch; ++b) {
    challenges.push_back(support::BitVector::random(64, rng));
  }
  std::vector<double> soft;
  for (auto _ : state) {
    emulator.eval_soft_batch(challenges.data(), batch, soft);
    benchmark::DoNotOptimize(soft.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EmulatorEvalSoftBatch);

void BM_LogRegTrain(benchmark::State& state) {
  support::Xoshiro256pp rng(11);
  std::vector<mlattack::Example> data;
  for (int i = 0; i < 1000; ++i) {
    mlattack::Example ex;
    for (int f = 0; f < 65; ++f) ex.features.push_back(rng.gaussian());
    ex.label = rng.bernoulli(0.5);
    data.push_back(std::move(ex));
  }
  mlattack::LogRegParams params;
  params.epochs = 5;
  for (auto _ : state) {
    mlattack::LogisticRegression model(65);
    model.train(data, params, rng);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_LogRegTrain);

// Display reporter that forwards to google-benchmark's own, which follows
// --benchmark_format and --benchmark_color, while capturing every run for
// the stable-schema JSON file (BENCH_micro_perf.json) the CI trajectory
// tracking consumes.
class JsonCapturingReporter : public benchmark::BenchmarkReporter {
 public:
  struct Row {
    std::string name;
    double s_per_iter = 0.0;
    double items_per_s = 0.0;
  };

  /// `display` is not owned (google-benchmark keeps its default reporter).
  explicit JsonCapturingReporter(benchmark::BenchmarkReporter& display)
      : display_(&display) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    display_->ReportRuns(reports);
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      Row row;
      row.name = run.benchmark_name();
      row.s_per_iter = run.iterations > 0
                           ? run.real_accumulated_time /
                                 static_cast<double>(run.iterations)
                           : 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) row.items_per_s = it->second.value;
      rows.push_back(std::move(row));
    }
  }

  void Finalize() override { display_->Finalize(); }

  std::vector<Row> rows;

 private:
  benchmark::BenchmarkReporter* display_;
};

void write_json(const char* path, bool smoke,
                const std::vector<JsonCapturingReporter::Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"micro_perf\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"s_per_iter\": %.9e, "
                 "\"items_per_second\": %.1f}%s\n",
                 rows[i].name.c_str(), rows[i].s_per_iter,
                 rows[i].items_per_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  // stderr: stdout carries the display format (--benchmark_format=json
  // must stay parseable).
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // `--smoke` (ctest 'bench' label) shrinks every benchmark's measurement
  // window; all other flags pass through to google-benchmark.
  bool smoke = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time[] = "--benchmark_min_time=0.02";
  if (smoke) args.push_back(min_time);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonCapturingReporter reporter(*benchmark::CreateDefaultDisplayReporter());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // --benchmark_list_tests or an unmatched filter measures nothing: keep
  // the JSON of the last run that did.
  if (!reporter.rows.empty()) {
    write_json("BENCH_micro_perf.json", smoke, reporter.rows);
  }
  return 0;
}

#include "alupuf/alu_puf.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

#include "obs/trace.hpp"

namespace pufatt::alupuf {

namespace {

bool same_env(const variation::Environment& a, const variation::Environment& b) {
  return a.vdd_scale == b.vdd_scale && a.temperature_c == b.temperature_c;
}

std::vector<netlist::GateId> raced_gates(const netlist::AluPufCircuit& circuit) {
  std::vector<netlist::GateId> observed;
  observed.reserve(circuit.race0.size() + circuit.race1.size());
  observed.insert(observed.end(), circuit.race0.begin(), circuit.race0.end());
  observed.insert(observed.end(), circuit.race1.begin(), circuit.race1.end());
  return observed;
}

timingsim::DelaySet nominal_delays(const PufCircuit& circuit,
                                   const variation::DelayTable& model) {
  if (model.intrinsic_ps.size() != circuit.circuit.net.num_gates()) {
    throw std::invalid_argument(
        "AluPufEmulator: delay table does not match the PUF circuit "
        "(wrong width or layout?)");
  }
  return variation::delays_from_table(model, variation::Environment::nominal());
}

/// The eval_batch per-lane generator derivation (see alu_puf.hpp).
constexpr std::uint64_t kLaneGolden = 0x9E3779B97F4A7C15ULL;

support::Xoshiro256pp lane_rng(std::uint64_t batch_seed, std::size_t lane) {
  return support::Xoshiro256pp(
      support::SplitMix64::mix(batch_seed + kLaneGolden * (lane + 1)));
}

}  // namespace

PufCircuit::PufCircuit(std::size_t width, const netlist::AluPufLayout& layout)
    : circuit(netlist::build_alu_puf_circuit(width, layout)),
      sim(circuit.net),
      cone_sim(circuit.net, raced_gates(circuit)),
      lane_engine(cone_sim.compiled()) {}

std::shared_ptr<const PufCircuit> shared_circuit(
    std::size_t width, const netlist::AluPufLayout& layout) {
  using Key = std::tuple<std::size_t, double, double, double>;
  static std::mutex mutex;
  static std::map<Key, std::shared_ptr<const PufCircuit>> memo;
  const Key key{width, layout.alu_separation, layout.origin_x,
                layout.origin_y};
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = memo[key];
  if (!slot) slot = std::make_shared<const PufCircuit>(width, layout);
  return slot;
}

AluPuf::AluPuf(const AluPufConfig& config, std::uint64_t chip_seed)
    : config_(config),
      circuit_(shared_circuit(config.width, config.layout)),
      chip_(circuit().net, config.tech, config.quadtree, chip_seed),
      arbiter_(config.arbiter),
      nominal_(chip_.nominal_delays(variation::Environment::nominal())) {}

void AluPuf::check_challenge(const Challenge& challenge) const {
  if (challenge.size() != challenge_bits()) {
    throw std::invalid_argument("AluPuf: challenge must be 2*width bits");
  }
}

const timingsim::DelaySet& AluPuf::delays_at(
    const variation::Environment& env, timingsim::DelaySet& corner) const {
  if (same_env(env, variation::Environment::nominal())) return nominal_;
  chip_.nominal_delays(env, corner);
  return corner;
}

RawResponse AluPuf::eval(const Challenge& challenge,
                         const variation::Environment& env,
                         support::Xoshiro256pp& rng,
                         const ClockConstraint* clock) const {
  check_challenge(challenge);
  timingsim::DelaySet corner, delays;
  chip_.sample_delays(delays_at(env, corner), config_.noise, rng, delays);
  std::vector<timingsim::SignalState> states;
  circuit_->sim.run(challenge, delays, states);

  RawResponse response(config_.width);
  const double deadline =
      clock != nullptr ? clock->cycle_ps - clock->setup_ps : 0.0;
  for (std::size_t i = 0; i < config_.width; ++i) {
    const double t0 = states[circuit().race0[i]].time_ps;
    const double t1 = states[circuit().race1[i]].time_ps;
    if (clock != nullptr && std::min(t0, t1) > deadline) {
      // Neither transition reached the arbiter before the capture edge:
      // the register samples a signal mid-flight and resolves metastably —
      // an unbiased coin, wrong half the time regardless of the expected
      // bit.  This is the setup-violation failure mode that defeats
      // overclocking attacks (paper Section 4.2).
      response.set(i, rng.bernoulli(0.5));
      continue;
    }
    response.set(i, arbiter_.sample(t1 - t0, rng));
  }
  return response;
}

std::vector<RawResponse> AluPuf::eval_batch(const Challenge* challenges,
                                            std::size_t count,
                                            const variation::Environment& env,
                                            support::Xoshiro256pp& rng,
                                            const ClockConstraint* clock,
                                            AluPufBatchScratch* scratch) const {
  const std::uint64_t batch_seed = rng.next();
  std::vector<RawResponse> responses;
  responses.reserve(count);
  if (count == 0) return responses;
  for (std::size_t x = 0; x < count; ++x) check_challenge(challenges[x]);

  AluPufBatchScratch local;
  AluPufBatchScratch& ws = scratch != nullptr ? *scratch : local;
  timingsim::pack_input_words(challenges, count, challenge_bits(),
                              ws.input_words);
  const std::size_t rwords = (config_.width + 63) / 64;
  std::vector<std::uint64_t> words(count * rwords, 0);
  eval_packed(batch_seed, ws.input_words.data(), count, env, clock, ws,
              words.data());
  for (std::size_t x = 0; x < count; ++x) {
    RawResponse response(config_.width);
    for (std::size_t i = 0; i < config_.width; ++i) {
      response.set(i, (words[x * rwords + i / 64] >> (i % 64)) & 1ULL);
    }
    responses.push_back(std::move(response));
  }
  return responses;
}

void AluPuf::eval_words(const std::uint64_t* challenges, std::size_t count,
                        const variation::Environment& env,
                        support::Xoshiro256pp& rng,
                        const ClockConstraint* clock,
                        AluPufBatchScratch& scratch,
                        std::uint64_t* responses) const {
  const std::size_t inputs = challenge_bits();
  if (count == 0 || count > 64 || inputs > 64) {
    throw std::invalid_argument(
        "AluPuf::eval_words: needs 1..64 challenges, width <= 32");
  }
  for (std::size_t x = 0; x < count; ++x) {
    if (inputs < 64 && (challenges[x] >> inputs) != 0) {
      throw std::invalid_argument("AluPuf: challenge must be 2*width bits");
    }
  }
  const std::uint64_t batch_seed = rng.next();
  scratch.input_words.resize(inputs);
  timingsim::pack_input_words(challenges, count, inputs,
                              scratch.input_words.data());
  std::fill_n(responses, count, 0);
  eval_packed(batch_seed, scratch.input_words.data(), count, env, clock,
              scratch, responses);
}

void AluPuf::eval_packed(std::uint64_t batch_seed,
                         const std::uint64_t* input_words, std::size_t count,
                         const variation::Environment& env,
                         const ClockConstraint* clock, AluPufBatchScratch& ws,
                         std::uint64_t* responses) const {
  // Batch profiling under the global tracer: the delay-sampling fill and
  // the arbiter sweep flank the timing kernel (which records its own
  // span), so the three children of puf.eval_batch account for the whole
  // evaluation.
  obs::Span eval_span;
  if (obs::global_trace_enabled()) {
    eval_span = obs::global_tracer().span("puf.eval_batch");
    eval_span.note("lanes", static_cast<double>(count));
  }

  timingsim::DelaySet corner;
  const auto& nominal = delays_at(env, corner);

  // Per-lane noisy delay realization: each lane's derived generator feeds
  // the batched ziggurat fill (one deviate per gate, gate order) and stays
  // live for that lane's arbiter draws below.
  ws.lane_rngs.resize(count, support::Xoshiro256pp(0));
  for (std::size_t x = 0; x < count; ++x) {
    ws.lane_rngs[x] = lane_rng(batch_seed, x);
  }
  obs::Span sample_span = eval_span.child("puf.sample_delays");
  chip_.sample_delays_batch(nominal, config_.noise, ws.lane_rngs.data(),
                            count, ws.delays);
  sample_span.end();

  // The arbiter sweep reads race times as rows of lanes, t0[i*count + x]
  // being lane x's time at race0[i] and t1 likewise.
  const std::size_t width = config_.width;
  ws.race_times.resize(2 * width * count);
  double* const t0 = ws.race_times.data();
  double* const t1 = t0 + width * count;
  const auto& slice_engine = circuit_->lane_engine;
  slice_engine.run(input_words, count, ws.delays, ws.slice);

  obs::Span arbiter_span = eval_span.child("puf.arbiter");
  for (std::size_t i = 0; i < width; ++i) {
    slice_engine.lane_times(ws.slice, circuit().race0[i], t0 + i * count);
    slice_engine.lane_times(ws.slice, circuit().race1[i], t1 + i * count);
  }
  const double deadline =
      clock != nullptr ? clock->cycle_ps - clock->setup_ps : 0.0;
  arbiter_.sample_lanes(t0, t1, count, width,
                        clock != nullptr ? &deadline : nullptr,
                        ws.lane_rngs.data(), responses);
  arbiter_span.end();
}

std::vector<double> AluPuf::race_deltas(const Challenge& challenge,
                                        const variation::Environment& env) const {
  check_challenge(challenge);
  timingsim::DelaySet corner;
  std::vector<timingsim::SignalState> states;
  circuit_->sim.run(challenge, delays_at(env, corner), states);
  std::vector<double> deltas(config_.width);
  for (std::size_t i = 0; i < config_.width; ++i) {
    deltas[i] = states[circuit().race1[i]].time_ps -
                states[circuit().race0[i]].time_ps;
  }
  return deltas;
}

double AluPuf::max_settle_ps(const variation::Environment& env) const {
  // All-propagate challenge: a = all ones, b = 1 -> full-length carry chain.
  Challenge challenge(challenge_bits());
  for (std::size_t i = 0; i < config_.width; ++i) challenge.set(i, true);
  challenge.set(config_.width, true);
  timingsim::DelaySet corner;
  std::vector<timingsim::SignalState> states;
  circuit_->sim.run(challenge, delays_at(env, corner), states);
  double worst = 0.0;
  for (std::size_t i = 0; i < config_.width; ++i) {
    worst = std::max({worst, states[circuit().race0[i]].time_ps,
                      states[circuit().race1[i]].time_ps});
  }
  return worst;
}

void AluPuf::age_uniformly(double duty, double hours,
                           const variation::AgingParams& params) {
  chip_.age_uniformly(duty, hours, params);
  chip_.nominal_delays(variation::Environment::nominal(), nominal_);
}

void AluPuf::apply_stage_stress(std::size_t bit, bool alu1, double duty,
                                double hours,
                                const variation::AgingParams& params) {
  if (bit >= config_.width) {
    throw std::invalid_argument("apply_stage_stress: bit out of range");
  }
  const auto& stage =
      alu1 ? circuit().stage_gates1[bit] : circuit().stage_gates0[bit];
  for (const auto gate : stage) {
    chip_.apply_stress(gate, duty, hours, params);
  }
  chip_.nominal_delays(variation::Environment::nominal(), nominal_);
}

AluPufEmulator::AluPufEmulator(std::size_t width,
                               const variation::DelayTable& model,
                               const netlist::AluPufLayout& layout)
    : width_(width),
      circuit_(shared_circuit(width, layout)),
      engine_(circuit_->cone_sim.compiled(),
              nominal_delays(*circuit_, model)) {}

void AluPufEmulator::eval_soft_batch(const Challenge* challenges,
                                     std::size_t count,
                                     std::vector<double>& out) const {
  out.resize(count * width_);
  if (count == 0) return;
  std::vector<std::uint64_t> words;  // throws on a wrong-size challenge
  timingsim::pack_input_words(challenges, count, 2 * width_, words);
  timingsim::BitSliceState state;
  engine_.run(words.data(), count, state);
  soft_from_slice(state, out.data());
}

void AluPufEmulator::eval_soft_words(const std::uint64_t* challenges,
                                     std::size_t count, double* out,
                                     timingsim::BitSliceState& state) const {
  const std::size_t inputs = 2 * width_;
  if (count == 0 || count > 64 || inputs > 64) {
    throw std::invalid_argument(
        "AluPufEmulator::eval_soft_words: needs 1..64 lanes, width <= 32");
  }
  for (std::size_t x = 0; x < count; ++x) {
    if (inputs < 64 && (challenges[x] >> inputs) != 0) {
      throw std::invalid_argument(
          "AluPufEmulator: challenge must be 2*width bits");
    }
  }
  std::uint64_t words[64] = {};
  timingsim::pack_input_words(challenges, count, inputs, words);
  engine_.run(words, count, state);
  soft_from_slice(state, out);
}

void AluPufEmulator::soft_from_slice(const timingsim::BitSliceState& state,
                                     double* out) const {
  for (std::size_t i = 0; i < width_; ++i) {
    engine_.race_deltas(state, circuit().race0[i], circuit().race1[i],
                        out + i, width_);
  }
  // Bit is 1 when delta > 0, and the LLR convention is positive = bit 0.
  for (std::size_t k = 0; k < state.count * width_; ++k) out[k] = -out[k];
}

RawResponse AluPufEmulator::eval(const Challenge& challenge) const {
  const auto llr = eval_soft(challenge);
  RawResponse response(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    response.set(i, timingsim::Arbiter::decide(-llr[i]));
  }
  return response;
}

std::vector<double> AluPufEmulator::eval_soft(const Challenge& challenge) const {
  if (challenge.size() != 2 * width_) {
    throw std::invalid_argument("AluPufEmulator: challenge must be 2*width bits");
  }
  std::vector<timingsim::SignalState> states;
  circuit_->sim.run(challenge, engine_.delays(), states);
  std::vector<double> llr(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    // Bit is 1 when delta > 0, and the LLR convention is positive = bit 0.
    llr[i] = -(states[circuit().race1[i]].time_ps -
               states[circuit().race0[i]].time_ps);
  }
  return llr;
}

}  // namespace pufatt::alupuf

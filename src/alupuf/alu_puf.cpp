#include "alupuf/alu_puf.hpp"

#include <algorithm>
#include <stdexcept>

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

/// The eval_batch per-lane generator derivation (see alu_puf.hpp).
constexpr std::uint64_t kLaneGolden = 0x9E3779B97F4A7C15ULL;

support::Xoshiro256pp lane_rng(std::uint64_t batch_seed, std::size_t lane) {
  return support::Xoshiro256pp(
      support::SplitMix64::mix(batch_seed + kLaneGolden * (lane + 1)));
}

}  // namespace

AluPuf::AluPuf(const AluPufConfig& config, std::uint64_t chip_seed)
    : config_(config),
      circuit_(netlist::build_alu_puf_circuit(config.width, config.layout)),
      chip_(circuit_.net, config.tech, config.quadtree, chip_seed),
      sim_(circuit_.net),
      cone_sim_(circuit_.net, raced_gates(circuit_)),
      slice_sim_(cone_sim_.compiled()),
      arbiter_(config.arbiter) {}

void AluPuf::check_challenge(const Challenge& challenge) const {
  if (challenge.size() != challenge_bits()) {
    throw std::invalid_argument("AluPuf: challenge must be 2*width bits");
  }
}

const timingsim::DelaySet& AluPuf::nominal_for(
    const variation::Environment& env) const {
  if (!has_cache_ || !same_env(env, cached_env_)) {
    chip_.nominal_delays(env, cached_nominal_);
    cached_env_ = env;
    has_cache_ = true;
  }
  return cached_nominal_;
}

RawResponse AluPuf::eval(const Challenge& challenge,
                         const variation::Environment& env,
                         support::Xoshiro256pp& rng,
                         const ClockConstraint* clock) const {
  check_challenge(challenge);
  const auto& nominal = nominal_for(env);
  chip_.sample_delays(nominal, config_.noise, rng, scratch_delays_);
  sim_.run(challenge, scratch_delays_, scratch_states_);

  RawResponse response(config_.width);
  const double deadline =
      clock != nullptr ? clock->cycle_ps - clock->setup_ps : 0.0;
  for (std::size_t i = 0; i < config_.width; ++i) {
    const double t0 = scratch_states_[circuit_.race0[i]].time_ps;
    const double t1 = scratch_states_[circuit_.race1[i]].time_ps;
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
                                            AluPufBatchScratch* scratch,
                                            timingsim::BatchEngine engine) const {
  // The batch_seed draw precedes engine resolution so responses are a
  // function of (rng state, challenges) alone — switching engines cannot
  // change them.
  const std::uint64_t batch_seed = rng.next();
  std::vector<RawResponse> responses;
  responses.reserve(count);
  if (count == 0) return responses;
  for (std::size_t x = 0; x < count; ++x) check_challenge(challenges[x]);

  // Batch profiling under the global tracer: the delay-sampling loop and
  // the arbiter sweep are the two scalar phases flanking the vectorized
  // timing kernel (which records its own span), so the three children of
  // puf.eval_batch account for the whole evaluation.
  obs::Span eval_span;
  if (obs::global_trace_enabled()) {
    eval_span = obs::global_tracer().span("puf.eval_batch");
    eval_span.note("lanes", static_cast<double>(count));
    eval_span.note("engine", static_cast<double>(engine));
  }

  AluPufBatchScratch& ws = scratch != nullptr ? *scratch : batch_scratch_;
  const auto& nominal = nominal_for(env);

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

  // Run the selected timing kernel.  The scalar reference path keeps its
  // race times in a side buffer; the bit-sliced state is read in place by
  // the arbiter sweep below.
  const bool sliced = engine == timingsim::BatchEngine::kBitslice;
  std::vector<double> scalar_t0, scalar_t1;
  if (sliced) {
    timingsim::pack_input_words(challenges, count, challenge_bits(),
                                ws.input_words);
    slice_sim_.run(ws.input_words.data(), count, ws.delays, ws.slice);
  } else {
    // One cone-restricted scalar run per lane, each with its own column
    // of the sampled delay matrix.  All-local state: the reference path
    // must stay safe under the same thread-sharing rules as the other.
    scalar_t0.resize(count * config_.width);
    scalar_t1.resize(count * config_.width);
    const std::size_t gates = circuit_.net.num_gates();
    timingsim::DelaySet lane_delays;
    lane_delays.rise_ps.resize(gates);
    lane_delays.fall_ps.resize(gates);
    std::vector<timingsim::SignalState> states;
    for (std::size_t x = 0; x < count; ++x) {
      for (std::size_t g = 0; g < gates; ++g) {
        lane_delays.rise_ps[g] = ws.delays.rise_ps[g * count + x];
        lane_delays.fall_ps[g] = ws.delays.fall_ps[g * count + x];
      }
      cone_sim_.run(challenges[x], lane_delays, states);
      for (std::size_t i = 0; i < config_.width; ++i) {
        scalar_t0[x * config_.width + i] = states[circuit_.race0[i]].time_ps;
        scalar_t1[x * config_.width + i] = states[circuit_.race1[i]].time_ps;
      }
    }
  }

  obs::Span arbiter_span = eval_span.child("puf.arbiter");
  const double deadline =
      clock != nullptr ? clock->cycle_ps - clock->setup_ps : 0.0;
  for (std::size_t x = 0; x < count; ++x) {
    support::Xoshiro256pp& lrng = ws.lane_rngs[x];
    RawResponse response(config_.width);
    for (std::size_t i = 0; i < config_.width; ++i) {
      const double t0 = sliced
                            ? slice_sim_.time_ps(ws.slice, circuit_.race0[i], x)
                            : scalar_t0[x * config_.width + i];
      const double t1 = sliced
                            ? slice_sim_.time_ps(ws.slice, circuit_.race1[i], x)
                            : scalar_t1[x * config_.width + i];
      if (clock != nullptr && std::min(t0, t1) > deadline) {
        response.set(i, lrng.bernoulli(0.5));
        continue;
      }
      response.set(i, arbiter_.sample(t1 - t0, lrng));
    }
    responses.push_back(std::move(response));
  }
  arbiter_span.end();
  return responses;
}

std::vector<double> AluPuf::race_deltas(const Challenge& challenge,
                                        const variation::Environment& env) const {
  check_challenge(challenge);
  sim_.run(challenge, nominal_for(env), scratch_states_);
  std::vector<double> deltas(config_.width);
  for (std::size_t i = 0; i < config_.width; ++i) {
    deltas[i] = scratch_states_[circuit_.race1[i]].time_ps -
                scratch_states_[circuit_.race0[i]].time_ps;
  }
  return deltas;
}

double AluPuf::max_settle_ps(const variation::Environment& env) const {
  // All-propagate challenge: a = all ones, b = 1 -> full-length carry chain.
  Challenge challenge(challenge_bits());
  for (std::size_t i = 0; i < config_.width; ++i) challenge.set(i, true);
  challenge.set(config_.width, true);
  sim_.run(challenge, nominal_for(env), scratch_states_);
  double worst = 0.0;
  for (std::size_t i = 0; i < config_.width; ++i) {
    worst = std::max({worst, scratch_states_[circuit_.race0[i]].time_ps,
                      scratch_states_[circuit_.race1[i]].time_ps});
  }
  return worst;
}

void AluPuf::age_uniformly(double duty, double hours,
                           const variation::AgingParams& params) {
  chip_.age_uniformly(duty, hours, params);
  has_cache_ = false;  // delays changed
}

void AluPuf::apply_stage_stress(std::size_t bit, bool alu1, double duty,
                                double hours,
                                const variation::AgingParams& params) {
  if (bit >= config_.width) {
    throw std::invalid_argument("apply_stage_stress: bit out of range");
  }
  const auto& stage =
      alu1 ? circuit_.stage_gates1[bit] : circuit_.stage_gates0[bit];
  for (const auto gate : stage) {
    chip_.apply_stress(gate, duty, hours, params);
  }
  has_cache_ = false;
}

AluPufEmulator::AluPufEmulator(std::size_t width, variation::DelayTable model,
                               netlist::AluPufLayout layout)
    : width_(width),
      circuit_(netlist::build_alu_puf_circuit(width, layout)),
      model_(std::move(model)),
      sim_(circuit_.net),
      cone_sim_(circuit_.net, raced_gates(circuit_)) {
  if (model_.intrinsic_ps.size() != circuit_.net.num_gates()) {
    throw std::invalid_argument(
        "AluPufEmulator: delay table does not match the PUF circuit "
        "(wrong width or layout?)");
  }
}

const timingsim::DelaySet& AluPufEmulator::delays_for(
    const variation::Environment& env) const {
  if (!has_cache_ || cached_env_.vdd_scale != env.vdd_scale ||
      cached_env_.temperature_c != env.temperature_c) {
    cached_delays_ = variation::delays_from_table(model_, env);
    // Rebuild the shared-delay bit-sliced engine eagerly with the cache:
    // its time-rep classification is a one-off per operating point, and
    // prewarm() must leave nothing left to build lazily (thread sharing).
    cached_slice_ = std::make_unique<timingsim::BitSliceEngine>(
        cone_sim_.compiled(), cached_delays_);
    cached_env_ = env;
    has_cache_ = true;
  }
  return cached_delays_;
}

void AluPufEmulator::run_challenge(const Challenge& challenge,
                                   const variation::Environment& env) const {
  if (challenge.size() != 2 * width_) {
    throw std::invalid_argument("AluPufEmulator: challenge must be 2*width bits");
  }
  sim_.run(challenge, delays_for(env), scratch_states_);
}

void AluPufEmulator::check_batch(const Challenge* challenges,
                                 std::size_t count) const {
  for (std::size_t x = 0; x < count; ++x) {
    if (challenges[x].size() != 2 * width_) {
      throw std::invalid_argument(
          "AluPufEmulator: challenge must be 2*width bits");
    }
  }
}

void AluPufEmulator::run_slice(const Challenge* challenges, std::size_t count,
                               const variation::Environment& env) const {
  check_batch(challenges, count);
  delays_for(env);
  timingsim::pack_input_words(challenges, count, 2 * width_, slice_words_);
  cached_slice_->run(slice_words_.data(), count, slice_state_);
}

std::vector<RawResponse> AluPufEmulator::eval_batch(
    const Challenge* challenges, std::size_t count,
    const variation::Environment& env, timingsim::BatchEngine engine) const {
  std::vector<RawResponse> responses;
  if (count == 0) return responses;
  if (engine == timingsim::BatchEngine::kScalar) {
    check_batch(challenges, count);
    responses.reserve(count);
    for (std::size_t x = 0; x < count; ++x) {
      responses.push_back(eval(challenges[x], env));
    }
    return responses;
  }
  run_slice(challenges, count, env);
  // Word-parallel arbiter: decide every race 64 lanes at a time, then
  // transpose each lane block back into per-device response vectors.
  responses.assign(count, RawResponse(width_));
  const std::size_t nwords = slice_state_.nwords;
  std::vector<std::uint64_t> race(width_ * nwords);
  for (std::size_t i = 0; i < width_; ++i) {
    cached_slice_->race_words(slice_state_, circuit_.race0[i],
                              circuit_.race1[i], race.data() + i * nwords);
  }
  for (std::size_t w = 0; w < nwords; ++w) {
    const std::size_t lanes = std::min<std::size_t>(64, count - w * 64);
    support::unpack_bit_columns(race.data() + w, width_, nwords,
                                responses.data() + w * 64, lanes);
  }
  return responses;
}

void AluPufEmulator::eval_soft_batch(const Challenge* challenges,
                                     std::size_t count,
                                     std::vector<double>& out,
                                     const variation::Environment& env,
                                     timingsim::BatchEngine engine) const {
  out.resize(count * width_);
  if (count == 0) return;
  if (engine == timingsim::BatchEngine::kScalar) {
    check_batch(challenges, count);
    for (std::size_t x = 0; x < count; ++x) {
      const auto llr = eval_soft(challenges[x], env);
      std::copy(llr.begin(), llr.end(), out.begin() + x * width_);
    }
    return;
  }
  run_slice(challenges, count, env);
  soft_from_slice(out.data());
}

void AluPufEmulator::eval_soft_words(const std::uint64_t* challenges,
                                     std::size_t count, double* out,
                                     const variation::Environment& env) const {
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
  delays_for(env);
  std::uint64_t words[64] = {};
  timingsim::pack_input_words(challenges, count, inputs, words);
  cached_slice_->run(words, count, slice_state_);
  soft_from_slice(out);
}

void AluPufEmulator::soft_from_slice(double* out) const {
  for (std::size_t i = 0; i < width_; ++i) {
    cached_slice_->race_deltas(slice_state_, circuit_.race0[i],
                               circuit_.race1[i], out + i, width_);
  }
  // Bit is 1 when delta > 0, and the LLR convention is positive = bit 0.
  for (std::size_t k = 0; k < slice_state_.count * width_; ++k) out[k] = -out[k];
}

RawResponse AluPufEmulator::eval(const Challenge& challenge,
                                 const variation::Environment& env) const {
  run_challenge(challenge, env);
  RawResponse response(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    const double delta = scratch_states_[circuit_.race1[i]].time_ps -
                         scratch_states_[circuit_.race0[i]].time_ps;
    response.set(i, timingsim::Arbiter::decide(delta));
  }
  return response;
}

std::vector<double> AluPufEmulator::eval_soft(
    const Challenge& challenge, const variation::Environment& env) const {
  run_challenge(challenge, env);
  std::vector<double> llr(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    const double delta = scratch_states_[circuit_.race1[i]].time_ps -
                         scratch_states_[circuit_.race0[i]].time_ps;
    // Bit is 1 when delta > 0, and the LLR convention is positive = bit 0.
    llr[i] = -delta;
  }
  return llr;
}

}  // namespace pufatt::alupuf

// Timing-engine throughput bench: scalar vs bit-sliced evaluation, plus
// shard-parallel CRP generation.
//
// Three sweeps on the 32-bit ALU PUF circuit:
//   1. engine level — TimingSimulator::run vs the bit-sliced engine (64
//      lanes per uint64_t word) on shared delays, the verifier-emulation
//      workload, at 8 lanes (one verifier PUF() call) and up, with an
//      exact divergence count (values and settle times compared bitwise
//      per net against scalar);
//   2. device level — AluPuf::eval vs eval_batch (per-lane noisy delays,
//      the CRP-generation workload);
//   3. CRP generation — collect_alu_raw_parallel at 1/2/4/8 threads with a
//      dataset digest that must be invariant across thread counts.
//
// Results go to stdout and BENCH_sim_engine.json (same schema family as
// BENCH_service_throughput.json).  `--smoke` runs a tiny sweep as a ctest
// smoke test labeled 'bench'; the full run backs the acceptance criteria
// (>= 20x bit-sliced speedup over scalar at the best engine-level point,
// >= 1.2x at the device level where per-lane noise sampling rides along,
// zero divergence, thread-invariant parallel datasets).
//
// Timing claims are measured interleaved best-of-N (contender and baseline
// alternate inside one loop) so a noisy-neighbour blip on a shared host
// hits both sides instead of deciding the claim.  Scaling claims are
// hardware-aware: on an N-core host, T threads can only be expected to
// scale to min(T, N); beyond that we require no regression.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "mlattack/dataset.hpp"
#include "netlist/builder.hpp"
#include "support/table.hpp"
#include "timingsim/bitslice.hpp"
#include "timingsim/timing_sim.hpp"
#include "variation/chip.hpp"

using namespace pufatt;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t dataset_digest(const std::vector<mlattack::Example>& examples) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& e : examples) {
    const unsigned char label = e.label ? 1 : 0;
    h = fnv1a(h, &label, 1);
    h = fnv1a(h, e.features.data(), e.features.size() * sizeof(double));
  }
  return h;
}

struct SlicePoint {
  std::size_t batch = 0;
  double evals_per_s = 0.0;
  double speedup_vs_scalar = 0.0;
  std::size_t divergence = 0;
};

struct DevicePoint {
  const char* path = "";
  double evals_per_s = 0.0;
};

struct ThreadPoint {
  std::size_t threads = 0;
  double wall_s = 0.0;
  double crps_per_s = 0.0;
  double speedup_vs_1 = 0.0;
  std::uint64_t digest = 0;
};

void write_json(const char* path, bool smoke, std::size_t engine_evals,
                std::size_t crp_count, double scalar_evals_per_s,
                const std::vector<SlicePoint>& slice_sweep,
                const std::vector<DevicePoint>& device_sweep,
                const std::vector<ThreadPoint>& thread_sweep,
                std::size_t total_divergence, bool thread_invariant,
                bool scaling_ok, double device_speedup, bool device_speedup_ok,
                double bitslice_speedup, bool bitslice_speedup_ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 3,\n");
  std::fprintf(f, "  \"bench\": \"sim_engine\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f,
               "  \"workload\": {\"puf_width\": 32, \"engine_evals\": %zu, "
               "\"crp_count\": %zu, \"hardware_concurrency\": %u},\n",
               engine_evals, crp_count, std::thread::hardware_concurrency());
  std::fprintf(f, "  \"scalar_evals_per_s\": %.1f,\n", scalar_evals_per_s);
  std::fprintf(f, "  \"slice_sweep\": [\n");
  for (std::size_t i = 0; i < slice_sweep.size(); ++i) {
    const auto& p = slice_sweep[i];
    std::fprintf(f,
                 "    {\"batch\": %zu, \"evals_per_s\": %.1f, "
                 "\"speedup_vs_scalar\": %.3f, \"divergence\": %zu}%s\n",
                 p.batch, p.evals_per_s, p.speedup_vs_scalar, p.divergence,
                 i + 1 < slice_sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"device_sweep\": [\n");
  for (std::size_t i = 0; i < device_sweep.size(); ++i) {
    const auto& p = device_sweep[i];
    std::fprintf(f, "    {\"path\": \"%s\", \"evals_per_s\": %.1f}%s\n",
                 p.path, p.evals_per_s,
                 i + 1 < device_sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"thread_sweep\": [\n");
  for (std::size_t i = 0; i < thread_sweep.size(); ++i) {
    const auto& p = thread_sweep[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"wall_s\": %.4f, "
                 "\"crps_per_s\": %.1f, \"speedup_vs_1\": %.3f, "
                 "\"digest\": \"%016llx\"}%s\n",
                 p.threads, p.wall_s, p.crps_per_s, p.speedup_vs_1,
                 static_cast<unsigned long long>(p.digest),
                 i + 1 < thread_sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"claims\": {\"divergence\": %zu, "
               "\"divergence_ok\": %s, \"thread_invariant\": %s, "
               "\"scaling_ok\": %s, \"device_batch_speedup\": %.3f, "
               "\"device_batch_speedup_ok\": %s, "
               "\"bitslice_speedup\": %.3f, \"bitslice_speedup_ok\": %s}\n",
               total_divergence, total_divergence == 0 ? "true" : "false",
               thread_invariant ? "true" : "false",
               scaling_ok ? "true" : "false", device_speedup,
               device_speedup_ok ? "true" : "false", bitslice_speedup,
               bitslice_speedup_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("=== Timing-engine throughput: scalar vs bit-sliced (%s) ===\n\n",
              smoke ? "smoke" : "full");

  const std::size_t engine_evals = smoke ? 1024 : 16384;
  const std::size_t device_evals = smoke ? 512 : 4096;
  const std::size_t crp_count = smoke ? 2048 : 20000;
  const std::size_t crp_block = 256;

  // ---- workload: 32-bit ALU PUF circuit, one manufactured chip ----------
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 31415);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(0xBEEF);

  std::vector<support::BitVector> challenges;
  challenges.reserve(engine_evals);
  for (std::size_t i = 0; i < engine_evals; ++i) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }

  // ---- 1. engine level: scalar vs bit-sliced (64 lanes per word) -------
  // Interleaved best-of-N: each rep times one scalar pass and then every
  // bit-sliced batch size, so the headline bitslice_speedup compares two
  // rates measured under the same load.
  std::vector<timingsim::SignalState> states;
  double sink = 0.0;
  const timingsim::BitSliceEngine slice(sim.compiled(), delays);
  timingsim::BitSliceState slice_state;
  std::vector<std::uint64_t> input_words;
  // B=8 is the verifier's own shape: one PUF() call emulates 8 challenges.
  const std::size_t slice_batches[] = {8, 64, 256, 512};
  std::vector<SlicePoint> slice_sweep(std::size(slice_batches));
  double scalar_evals_per_s = 0.0;
  const int engine_reps = smoke ? 1 : 5;
  for (int rep = 0; rep < engine_reps; ++rep) {
    auto t0 = Clock::now();
    for (const auto& c : challenges) {
      sim.run(c, delays, states);
      sink += states.back().time_ps;
    }
    scalar_evals_per_s =
        std::max(scalar_evals_per_s, engine_evals / seconds_since(t0));
    for (std::size_t i = 0; i < std::size(slice_batches); ++i) {
      const std::size_t B = slice_batches[i];
      t0 = Clock::now();
      for (std::size_t base = 0; base < engine_evals; base += B) {
        const std::size_t n = std::min<std::size_t>(B, engine_evals - base);
        timingsim::pack_input_words(challenges.data() + base, n,
                                    circuit.net.num_inputs(), input_words);
        slice.run(input_words.data(), n, slice_state);
        sink += slice.time_ps(slice_state, circuit.race0[0], 0);
      }
      slice_sweep[i].batch = B;
      slice_sweep[i].evals_per_s = std::max(
          slice_sweep[i].evals_per_s, engine_evals / seconds_since(t0));
    }
  }
  // Divergence: recheck one pass bitwise against scalar, all gates, at the
  // verifier's 8 lanes (one tight-stride word) and at 256 (four words).
  std::size_t total_divergence = 0;
  for (auto& point : slice_sweep) {
    const std::size_t B = point.batch;
    if (B != 8 && B != 256) continue;
    for (std::size_t base = 0; base < engine_evals; base += B) {
      const std::size_t n = std::min<std::size_t>(B, engine_evals - base);
      timingsim::pack_input_words(challenges.data() + base, n,
                                  circuit.net.num_inputs(), input_words);
      slice.run(input_words.data(), n, slice_state);
      for (std::size_t b = 0; b < n; ++b) {
        sim.run(challenges[base + b], delays, states);
        for (std::size_t g = 0; g < circuit.net.num_gates(); ++g) {
          const auto id = static_cast<netlist::GateId>(g);
          if (slice.value(slice_state, id, b) != states[g].value ||
              slice.time_ps(slice_state, id, b) != states[g].time_ps) {
            ++point.divergence;
          }
        }
      }
    }
  }
  for (auto& p : slice_sweep) {
    p.speedup_vs_scalar = p.evals_per_s / scalar_evals_per_s;
    total_divergence += p.divergence;
  }

  // ---- 2. device level: noisy eval vs eval_batch ------------------------
  const alupuf::AluPufConfig puf_config;  // width 32
  const alupuf::AluPuf puf(puf_config, 777);
  const auto env = variation::Environment::nominal();
  std::vector<alupuf::Challenge> device_challenges;
  device_challenges.reserve(device_evals);
  for (std::size_t i = 0; i < device_evals; ++i) {
    device_challenges.push_back(
        support::BitVector::random(puf.challenge_bits(), rng));
  }
  std::vector<DevicePoint> device_sweep;
  {
    support::Xoshiro256pp eval_rng(42);
    const auto t0 = Clock::now();
    for (const auto& c : device_challenges) {
      sink += puf.eval(c, env, eval_rng).popcount();
    }
    device_sweep.push_back({"scalar_eval", device_evals / seconds_since(t0)});
  }
  {
    support::Xoshiro256pp eval_rng(42);
    alupuf::AluPufBatchScratch scratch;
    const auto t0 = Clock::now();
    for (std::size_t base = 0; base < device_evals; base += 256) {
      const std::size_t n = std::min<std::size_t>(256, device_evals - base);
      const auto responses =
          puf.eval_batch(device_challenges.data() + base, n, env, eval_rng,
                         nullptr, &scratch);
      sink += responses[0].popcount();
    }
    device_sweep.push_back({"eval_batch", device_evals / seconds_since(t0)});
  }

  // ---- 3. shard-parallel CRP generation ---------------------------------
  // Interleaved best-of-N per thread count (the scaling claim below divides
  // two of these rates, so one noisy run must not decide it).
  const int crp_reps = smoke ? 1 : 3;
  std::vector<ThreadPoint> thread_sweep = {{1}, {2}, {4}, {8}};
  bool thread_invariant = true;
  for (int rep = 0; rep < crp_reps; ++rep) {
    for (auto& p : thread_sweep) {
      mlattack::ParallelCrpConfig config;
      config.threads = p.threads;
      config.block = crp_block;
      config.seed = 99;
      const auto t0 = Clock::now();
      const auto dataset =
          mlattack::collect_alu_raw_parallel(puf, 0, crp_count, config);
      const double wall_s = seconds_since(t0);
      if (rep == 0 || wall_s < p.wall_s) p.wall_s = wall_s;
      p.crps_per_s = crp_count / p.wall_s;
      p.digest = dataset_digest(dataset);
      if (p.digest != thread_sweep[0].digest) thread_invariant = false;
    }
  }
  for (auto& p : thread_sweep) {
    p.speedup_vs_1 = p.crps_per_s / thread_sweep[0].crps_per_s;
  }

  // ---- claims ------------------------------------------------------------
  // Bit-sliced engine: best bit-sliced point vs the interleaved scalar
  // reference on the shared-delay workload.
  double slice_best = 0.0;
  for (const auto& p : slice_sweep) {
    slice_best = std::max(slice_best, p.evals_per_s);
  }
  const double bitslice_speedup = slice_best / scalar_evals_per_s;
  const bool bitslice_speedup_ok = bitslice_speedup >= 20.0;
  // Device level: the noisy batch path (ziggurat noise fill, gate-major
  // delay writes) must actually beat per-challenge eval — the regression
  // this sweep exists to catch.
  const double device_speedup =
      device_sweep[1].evals_per_s / device_sweep[0].evals_per_s;
  const bool device_speedup_ok = device_speedup >= 1.2;
  // Hardware-aware shard scaling: expect ~linear up to the core count,
  // and no worse than 0.7x the single-thread rate when oversubscribed.
  const std::size_t cores =
      std::max(1u, std::thread::hardware_concurrency());
  bool scaling_ok = true;
  for (const auto& p : thread_sweep) {
    const double expected = static_cast<double>(
        std::min<std::size_t>(p.threads, cores));
    if (p.speedup_vs_1 < 0.7 * expected) scaling_ok = false;
  }

  // ---- report ------------------------------------------------------------
  support::Table table({"sweep", "config", "rate", "note"});
  table.add_row({"engine", "scalar",
                 support::Table::num(scalar_evals_per_s, 0) + " eval/s",
                 "baseline"});
  for (const auto& p : slice_sweep) {
    table.add_row({"engine", "bitslice B=" + std::to_string(p.batch),
                   support::Table::num(p.evals_per_s, 0) + " eval/s",
                   support::Table::num(p.speedup_vs_scalar, 2) + "x, " +
                       std::to_string(p.divergence) + " diverge"});
  }
  for (const auto& p : device_sweep) {
    table.add_row({"device", p.path,
                   support::Table::num(p.evals_per_s, 0) + " eval/s",
                   "noisy"});
  }
  for (const auto& p : thread_sweep) {
    table.add_row({"crp-gen", std::to_string(p.threads) + " thread(s)",
                   support::Table::num(p.crps_per_s, 0) + " crp/s",
                   support::Table::num(p.speedup_vs_1, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "claims: bitslice %.2fx vs scalar (need >= 20 in full mode) | device "
      "batch %.2fx (need >= 1.2 in full mode) | divergence %zu | "
      "thread-invariant %s | scaling ok (vs %zu cores) %s\n(sink %.1f)\n",
      bitslice_speedup, device_speedup, total_divergence,
      thread_invariant ? "yes" : "NO", cores, scaling_ok ? "yes" : "NO",
      sink);

  write_json("BENCH_sim_engine.json", smoke, engine_evals, crp_count,
             scalar_evals_per_s, slice_sweep, device_sweep, thread_sweep,
             total_divergence, thread_invariant, scaling_ok, device_speedup,
             device_speedup_ok, bitslice_speedup, bitslice_speedup_ok);

  // Smoke mode gates only correctness — divergence plus thread invariance.
  // All timing claims (>= 20x bit-sliced, device batch, shard scaling)
  // gate only the full run: the smoke
  // workloads are tiny and ctest runs them alongside other tests (often on
  // one loaded core, worse under sanitizers), so any wall-clock assertion
  // there is pure flake.
  bool ok = total_divergence == 0 && thread_invariant;
  if (!smoke) {
    ok = ok && scaling_ok && device_speedup_ok && bitslice_speedup_ok;
  }
  return ok ? 0 : 1;
}

// Observability overhead bench: what does the tracing/metrics subsystem
// cost the two hot paths it instruments?
//
// Two workloads, three tracer modes each:
//   1. service level — attestation sessions through the worker pool
//      (the serve-demo workload, small fleet) with (a) no tracer wired,
//      (b) a tracer attached but disabled — the always-on production
//      configuration, whose cost is one relaxed load + branch per hook —
//      and (c) a tracer enabled at sample rate 1.0;
//   2. engine level — BitSliceEngine::run with the global tracer off vs on
//      (the per-batch span + occupancy counters).
//
// Results go to stdout and BENCH_obs_overhead.json (stable schema).
// `--smoke` runs a tiny sweep as a ctest smoke test labeled 'bench' and
// gates only correctness: untraced/disabled runs must record zero spans,
// an enabled run must produce the expected span tree.  The full run
// additionally enforces the acceptance criterion that tracing-disabled
// throughput stays within 2% of the untraced baseline (best-of-reps on
// both sides to damp scheduler noise).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "ecc/reed_muller.hpp"
#include "netlist/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/device_registry.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "timingsim/bitslice.hpp"
#include "variation/chip.hpp"

using namespace pufatt;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

struct Fleet {
  struct Device {
    std::string id;
    std::unique_ptr<alupuf::PufDevice> device;
    core::EnrollmentRecord record;
  };
  std::vector<Device> devices;
  service::DeviceRegistry registry;

  explicit Fleet(std::size_t count) {
    const auto profile = core::DeviceProfile::small();
    support::Xoshiro256pp rng(0x0BE7);
    std::vector<std::uint32_t> firmware(600);
    for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
    const auto image = core::make_enrolled_image(profile, firmware);
    devices.resize(count);
    for (std::size_t d = 0; d < count; ++d) {
      devices[d].id = "unit-" + std::to_string(d);
      devices[d].device = std::make_unique<alupuf::PufDevice>(
          profile.puf_config, 0xFAB0 + d, code());
      devices[d].record = core::enroll(*devices[d].device, profile, image);
      registry.store(devices[d].id, devices[d].record);
    }
  }
};

/// One pooled run of `sessions` fixed-seed jobs; returns sessions/s.
double run_service(Fleet& fleet, std::size_t sessions, obs::Tracer* tracer) {
  service::EmulatorCache cache(fleet.registry, code(), fleet.devices.size());
  service::PoolConfig config;
  config.workers = 2;
  config.queue_capacity = sessions;
  config.tracer = tracer;
  service::VerifierPool pool(cache, config);

  const auto t0 = Clock::now();
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::size_t d = s % fleet.devices.size();
    service::AttestationJob job;
    job.device_id = fleet.devices[d].id;
    job.channel_seed = 0xC0DE + 31 * s;
    job.rng_seed = 0xF1E1D + 17 * s;
    job.tag = s;
    auto prover = std::make_shared<core::CpuProver>(
        *fleet.devices[d].device, fleet.devices[d].record,
        core::CpuProver::Variant::kHonest, job.rng_seed ^ 0xF00D);
    job.responder = [prover](const core::AttestationRequest& request) {
      auto outcome = prover->respond(request);
      return core::ProverReply{std::move(outcome.response),
                               outcome.compute_us};
    };
    (void)pool.submit(std::move(job));
  }
  pool.drain();
  return static_cast<double>(sessions) / seconds_since(t0);
}

double best_of(std::size_t reps, const std::function<double()>& run) {
  double best = 0.0;
  for (std::size_t r = 0; r < reps; ++r) best = std::max(best, run());
  return best;
}

void write_json(bool smoke, std::size_t sessions, double svc_untraced,
                double svc_disabled, double svc_enabled, std::size_t evals,
                std::size_t batch, double eng_untraced, double eng_traced,
                std::size_t spans_recorded, bool ok) {
  std::FILE* f = std::fopen("BENCH_obs_overhead.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"obs_overhead\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"trace_compiled\": %s,\n",
               obs::kTraceCompiled ? "true" : "false");
  std::fprintf(f, "  \"service\": {\n");
  std::fprintf(f, "    \"sessions\": %zu,\n", sessions);
  std::fprintf(f, "    \"workers\": 2,\n");
  std::fprintf(f, "    \"sessions_per_s\": {\"untraced\": %.1f, "
               "\"tracer_disabled\": %.1f, \"tracer_enabled\": %.1f},\n",
               svc_untraced, svc_disabled, svc_enabled);
  std::fprintf(f, "    \"disabled_over_untraced\": %.4f,\n",
               svc_disabled / svc_untraced);
  std::fprintf(f, "    \"enabled_over_untraced\": %.4f\n",
               svc_enabled / svc_untraced);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"engine\": {\n");
  std::fprintf(f, "    \"evals\": %zu,\n", evals);
  std::fprintf(f, "    \"batch\": %zu,\n", batch);
  std::fprintf(f, "    \"evals_per_s\": {\"untraced\": %.0f, "
               "\"traced\": %.0f},\n", eng_untraced, eng_traced);
  std::fprintf(f, "    \"traced_over_untraced\": %.4f\n",
               eng_traced / eng_untraced);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"spans_recorded\": %zu,\n", spans_recorded);
  std::fprintf(f, "  \"ok\": %s\n", ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("=== Observability overhead: untraced vs disabled vs enabled "
              "(%s) ===\n\n", smoke ? "smoke" : "full");

  const std::size_t sessions = smoke ? 12 : 200;
  const std::size_t reps = smoke ? 1 : 3;
  Fleet fleet(3);

  // ---- 1. service level --------------------------------------------------
  const double svc_untraced =
      best_of(reps, [&] { return run_service(fleet, sessions, nullptr); });

  obs::Tracer disabled_tracer;  // attached, never enabled
  const double svc_disabled = best_of(
      reps, [&] { return run_service(fleet, sessions, &disabled_tracer); });

  obs::Tracer enabled_tracer;
  enabled_tracer.set_enabled(true);
  std::size_t spans_recorded = 0;
  const double svc_enabled = best_of(reps, [&] {
    enabled_tracer.clear();
    const double rate = run_service(fleet, sessions, &enabled_tracer);
    spans_recorded = enabled_tracer.records().size();
    return rate;
  });

  std::printf("service (%zu sessions, 2 workers, best of %zu):\n", sessions,
              reps);
  std::printf("  untraced        %8.1f sessions/s\n", svc_untraced);
  std::printf("  tracer disabled %8.1f sessions/s (%.1f%% of untraced)\n",
              svc_disabled, 100.0 * svc_disabled / svc_untraced);
  std::printf("  tracer enabled  %8.1f sessions/s (%.1f%% of untraced, "
              "%zu spans)\n\n", svc_enabled,
              100.0 * svc_enabled / svc_untraced, spans_recorded);

  // ---- correctness gates -------------------------------------------------
  bool ok = true;
  if (disabled_tracer.records().size() != 0 || disabled_tracer.dropped() != 0) {
    std::printf("FAIL: disabled tracer recorded spans\n");
    ok = false;
  }
  std::set<std::string> names;
  for (const auto& rec : enabled_tracer.records()) names.insert(rec.name);
  if (obs::kTraceCompiled) {
    for (const char* expected :
         {"pool.job", "pool.queue_wait", "pool.verify", "cache.acquire",
          "session.run", "session.attempt"}) {
      if (names.count(expected) == 0) {
        std::printf("FAIL: enabled run lacks %s spans\n", expected);
        ok = false;
      }
    }
  } else if (!names.empty()) {
    std::printf("FAIL: PUFATT_TRACE=0 build still recorded spans\n");
    ok = false;
  }

  // ---- 2. engine level ---------------------------------------------------
  const std::size_t evals = smoke ? 2048 : 32768;
  const std::size_t batch = 256;
  const auto circuit = netlist::build_alu_puf_circuit(32);
  const variation::ChipInstance chip(circuit.net, {}, {}, 27182);
  const auto delays = chip.nominal_delays(variation::Environment::nominal());
  const timingsim::TimingSimulator sim(circuit.net);
  support::Xoshiro256pp rng(0xB0B);
  std::vector<support::BitVector> challenges;
  challenges.reserve(evals);
  for (std::size_t i = 0; i < evals; ++i) {
    challenges.push_back(
        support::BitVector::random(circuit.net.num_inputs(), rng));
  }

  const timingsim::BitSliceEngine slice(sim.compiled(), delays);
  timingsim::BitSliceState state;
  std::vector<std::uint64_t> words;
  double sink = 0.0;
  const auto engine_pass = [&] {
    const auto t0 = Clock::now();
    for (std::size_t base = 0; base < evals; base += batch) {
      const std::size_t n = std::min<std::size_t>(batch, evals - base);
      timingsim::pack_input_words(challenges.data() + base, n,
                                  circuit.net.num_inputs(), words);
      slice.run(words.data(), n, state);
      sink += slice.time_ps(state, circuit.race0[0], 0);
    }
    return static_cast<double>(evals) / seconds_since(t0);
  };

  obs::set_global_trace(false);
  const double eng_untraced = best_of(reps, engine_pass);
  obs::global_tracer().clear();
  obs::global_registry().reset();
  obs::set_global_trace(true, 1.0);
  const double eng_traced = best_of(reps, engine_pass);
  obs::set_global_trace(false);

  const std::uint64_t sim_batches =
      obs::global_registry().counter("sim.batches").value();
  const std::uint64_t expected_batches =
      reps * ((evals + batch - 1) / batch);
  if (obs::kTraceCompiled && sim_batches != expected_batches) {
    std::printf("FAIL: sim.batches=%llu, expected %llu\n",
                static_cast<unsigned long long>(sim_batches),
                static_cast<unsigned long long>(expected_batches));
    ok = false;
  }

  std::printf("engine (bit-sliced run of %zu, %zu evals, best of %zu):\n",
              batch, evals, reps);
  std::printf("  untraced %10.0f evals/s\n", eng_untraced);
  std::printf("  traced   %10.0f evals/s (%.1f%% of untraced)  [sink %g]\n\n",
              eng_traced, 100.0 * eng_traced / eng_untraced, sink);

  // The acceptance bar applies to the real measurement, not the smoke run.
  if (!smoke && svc_disabled < 0.98 * svc_untraced) {
    std::printf("FAIL: tracer-disabled throughput %.1f below 98%% of "
                "untraced %.1f\n", svc_disabled, svc_untraced);
    ok = false;
  }

  write_json(smoke, sessions, svc_untraced, svc_disabled, svc_enabled, evals,
             batch, eng_untraced, eng_traced, spans_recorded, ok);
  std::printf("[%s] wrote BENCH_obs_overhead.json\n", ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

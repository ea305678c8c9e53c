// Concurrent attestation service: throughput and backpressure under load.
//
// Two sweeps over the same seeded workload (round-robin jobs across an
// enrolled fleet, 2% packet loss):
//
//   1. worker sweep — saturation throughput at 1/2/4/8 workers, with
//      *verdict parity* checked job-by-job against a serial baseline that
//      runs the identical (channel_seed, rng_seed) sessions without the
//      pool.  Concurrency must change wall time only, never a verdict.
//   2. offered-load sweep — at the top worker count, a paced open-loop
//      producer offers 0.5x/0.9x/1.5x of the measured capacity; beyond
//      capacity the bounded queue sheds load via kRejectedBusy instead of
//      growing, so goodput plateaus while busy rejections absorb the rest.
//
// Results go to stdout and to BENCH_service_throughput.json (schema
// documented in DESIGN.md §9; bump schema_version on any field change).
//
// `--smoke` runs a tiny sweep (1/2 workers, few jobs, no load sweep) as a
// ctest smoke test labeled 'bench'; the full run backs the acceptance
// claim: >= 3x session throughput at 8 workers vs 1, zero divergence.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/distributed.hpp"
#include "core/enrollment.hpp"
#include "core/session.hpp"
#include "ecc/reed_muller.hpp"
#include "service/device_registry.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "support/table.hpp"

using namespace pufatt;
using namespace pufatt::service;

namespace {

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

struct FleetDevice {
  std::string id;
  std::unique_ptr<alupuf::PufDevice> device;
  core::EnrollmentRecord record;
};

struct Workload {
  std::vector<FleetDevice> fleet;
  DeviceRegistry registry;
  std::size_t jobs = 0;
  core::FaultParams faults;

  std::uint64_t channel_seed(std::size_t job) const { return 0xC0FFEE + 31 * job; }
  std::uint64_t rng_seed(std::size_t job) const { return 0x5EED + 17 * job; }
  const FleetDevice& target(std::size_t job) const {
    return fleet[job % fleet.size()];
  }

  /// Fresh per-job prover, seeded from the job index: verdicts depend only
  /// on the job, not on which thread or in which order it runs.
  ///
  /// The responder also *blocks in host time* for the device's simulated
  /// compute + radio round trip (~13 ms at 250 kbit/s): in deployment a
  /// verifier worker spends almost all of each session waiting on the
  /// link, and overlapping that latency across devices is precisely the
  /// pool's job.  The sleep leaves the simulated clocks (and so every
  /// verdict) untouched.
  core::Responder responder(std::size_t job) const {
    const auto& dev = target(job);
    auto prover = std::make_shared<core::CpuProver>(
        *dev.device, dev.record, core::CpuProver::Variant::kHonest,
        rng_seed(job) ^ 0xF00D);
    return [prover](const core::AttestationRequest& request) {
      auto outcome = prover->respond(request);
      const core::Channel radio{};
      const double rtt_us = radio.round_trip_us(
          sizeof(std::uint64_t), outcome.response.wire_bytes());
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(outcome.compute_us + rtt_us)));
      return core::ProverReply{std::move(outcome.response),
                               outcome.compute_us};
    };
  }
};

Workload make_workload(std::size_t devices, std::size_t jobs) {
  Workload w;
  w.jobs = jobs;
  w.faults.loss_prob = 0.02;

  const auto profile = core::DeviceProfile::small();
  support::Xoshiro256pp rng(0x7B6);
  std::vector<std::uint32_t> firmware(600);
  for (auto& word : firmware) word = static_cast<std::uint32_t>(rng.next());
  const auto image = core::make_enrolled_image(profile, firmware);

  w.fleet.resize(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    w.fleet[d].id = "dev-" + std::to_string(d);
    w.fleet[d].device = std::make_unique<alupuf::PufDevice>(
        profile.puf_config, 0xD1CE00 + d, code());
    w.fleet[d].record = core::enroll(*w.fleet[d].device, profile, image);
    w.registry.store(w.fleet[d].id, w.fleet[d].record);
  }
  return w;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Serial ground truth: the same sessions, no pool, no threads.
std::vector<core::SessionStatus> run_serial(const Workload& w,
                                            double* wall_s) {
  std::vector<std::unique_ptr<core::Verifier>> verifiers;
  for (const auto& dev : w.fleet) {
    verifiers.push_back(std::make_unique<core::Verifier>(dev.record, code()));
  }
  std::vector<core::SessionStatus> verdicts(w.jobs);
  const double start = now_s();
  for (std::size_t job = 0; job < w.jobs; ++job) {
    core::FaultyChannel link({}, w.faults, w.channel_seed(job));
    core::AttestationSession session(*verifiers[job % w.fleet.size()], link);
    support::Xoshiro256pp rng(w.rng_seed(job));
    const auto responder = w.responder(job);
    verdicts[job] = session.run(responder, rng).status;
  }
  *wall_s = now_s() - start;
  return verdicts;
}

struct CellResult {
  std::size_t workers = 0;
  double wall_s = 0.0;
  double throughput = 0.0;
  std::size_t divergence = 0;
  MetricsSnapshot metrics;
  CacheCounters cache;
  std::uint64_t producer_busy_retries = 0;
};

/// Saturation cell: submit every job as fast as the queue accepts it.
CellResult run_pool_cell(const Workload& w, std::size_t workers,
                         const std::vector<core::SessionStatus>& baseline) {
  CellResult cell;
  cell.workers = workers;

  EmulatorCache cache(w.registry, code(), w.fleet.size());
  PoolConfig config;
  config.workers = workers;
  config.queue_capacity = 2 * workers;

  std::mutex verdict_mutex;
  std::vector<core::SessionStatus> verdicts(
      w.jobs, core::SessionStatus::kRetriesExhausted);
  auto on_complete = [&](const JobResult& result) {
    std::lock_guard<std::mutex> lock(verdict_mutex);
    verdicts[result.tag] = result.session.status;
  };

  const double start = now_s();
  {
    VerifierPool pool(cache, config, on_complete);
    for (std::size_t job = 0; job < w.jobs; ++job) {
      AttestationJob j;
      j.device_id = w.target(job).id;
      j.responder = w.responder(job);
      j.faults = w.faults;
      j.channel_seed = w.channel_seed(job);
      j.rng_seed = w.rng_seed(job);
      j.tag = job;
      // Closed-loop saturation: hold the job until the queue takes it so
      // every cell completes the identical job set.
      while (!pool.submit(j).enqueued()) {
        ++cell.producer_busy_retries;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    pool.drain();
    cell.wall_s = now_s() - start;
    cell.metrics = pool.metrics_snapshot();
  }
  cell.cache = cache.counters();
  cell.throughput = static_cast<double>(w.jobs) / cell.wall_s;
  for (std::size_t job = 0; job < w.jobs; ++job) {
    if (verdicts[job] != baseline[job]) ++cell.divergence;
  }
  return cell;
}

struct LoadResult {
  double offered_per_s = 0.0;
  double goodput_per_s = 0.0;  ///< completed sessions / wall time
  std::uint64_t submitted = 0;
  std::uint64_t busy_rejected = 0;
};

/// Open-loop cell: offer jobs at a fixed rate; a full queue drops them.
LoadResult run_load_cell(const Workload& w, std::size_t workers,
                         double offered_per_s, std::size_t offered_jobs) {
  LoadResult cell;
  cell.offered_per_s = offered_per_s;

  EmulatorCache cache(w.registry, code(), w.fleet.size());
  PoolConfig config;
  config.workers = workers;
  config.queue_capacity = 2 * workers;
  VerifierPool pool(cache, config);

  const double period_s = 1.0 / offered_per_s;
  const double start = now_s();
  for (std::size_t job = 0; job < offered_jobs; ++job) {
    const double deadline = start + static_cast<double>(job) * period_s;
    while (now_s() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    AttestationJob j;
    j.device_id = w.target(job).id;
    j.responder = w.responder(job);
    j.faults = w.faults;
    j.channel_seed = w.channel_seed(job);
    j.rng_seed = w.rng_seed(job);
    j.tag = job;
    (void)pool.submit(j);  // kRejectedBusy = shed: open-loop drops
  }
  pool.drain();
  const double wall_s = now_s() - start;

  const auto snap = pool.metrics_snapshot();
  cell.submitted = snap.submitted;
  cell.busy_rejected = snap.rejected_busy;
  cell.goodput_per_s = static_cast<double>(snap.completed()) / wall_s;
  return cell;
}

void write_json(const char* path, bool smoke, const Workload& w,
                std::size_t queue_capacity_note, double serial_wall_s,
                const std::vector<CellResult>& cells,
                const std::vector<LoadResult>& load_cells, double speedup,
                bool speedup_ok, bool parity_ok) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"bench\": \"service_throughput\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f,
               "  \"workload\": {\"devices\": %zu, \"jobs_per_cell\": %zu, "
               "\"loss_prob\": %.3f, \"queue_capacity\": \"2*workers\", "
               "\"queue_capacity_top\": %zu},\n",
               w.fleet.size(), w.jobs, w.faults.loss_prob,
               queue_capacity_note);
  std::fprintf(f, "  \"serial_wall_s\": %.4f,\n", serial_wall_s);
  std::fprintf(f, "  \"worker_sweep\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    std::fprintf(
        f,
        "    {\"workers\": %zu, \"wall_s\": %.4f, \"throughput_per_s\": "
        "%.2f, \"speedup_vs_1\": %.3f, \"accepted\": %llu, \"rejected\": "
        "%llu, \"inconclusive\": %llu, \"producer_busy_retries\": %llu, "
        "\"busy_rejected\": %llu, \"queue_depth_hwm\": %llu, "
        "\"cache_hits\": %zu, \"cache_misses\": %zu, \"cache_evictions\": "
        "%zu, \"verdict_divergence\": %zu}%s\n",
        c.workers, c.wall_s, c.throughput,
        c.throughput / cells.front().throughput,
        static_cast<unsigned long long>(c.metrics.accepted),
        static_cast<unsigned long long>(c.metrics.rejected),
        static_cast<unsigned long long>(c.metrics.inconclusive),
        static_cast<unsigned long long>(c.producer_busy_retries),
        static_cast<unsigned long long>(c.metrics.rejected_busy),
        static_cast<unsigned long long>(c.metrics.queue_depth_hwm),
        c.cache.hits, c.cache.misses, c.cache.evictions, c.divergence,
        i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"load_sweep\": [\n");
  for (std::size_t i = 0; i < load_cells.size(); ++i) {
    const auto& c = load_cells[i];
    std::fprintf(f,
                 "    {\"offered_per_s\": %.2f, \"goodput_per_s\": %.2f, "
                 "\"submitted\": %llu, \"busy_rejected\": %llu}%s\n",
                 c.offered_per_s, c.goodput_per_s,
                 static_cast<unsigned long long>(c.submitted),
                 static_cast<unsigned long long>(c.busy_rejected),
                 i + 1 < load_cells.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"claims\": {\"speedup_top_vs_1\": %.3f, \"speedup_ok\": "
               "%s, \"parity_ok\": %s}\n",
               speedup, speedup_ok ? "true" : "false",
               parity_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("=== Concurrent attestation service: throughput & backpressure "
              "(%s) ===\n\n",
              smoke ? "smoke" : "full");

  const std::size_t devices = smoke ? 4 : 16;
  const std::size_t jobs = smoke ? 12 : 128;
  const std::vector<std::size_t> worker_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};

  std::printf("enrolling %zu devices, %zu jobs per cell, 2%% loss...\n\n",
              devices, jobs);
  const auto workload = make_workload(devices, jobs);

  double serial_wall_s = 0.0;
  const auto baseline = run_serial(workload, &serial_wall_s);
  std::printf("serial baseline: %.2f s (%.1f sessions/s)\n\n", serial_wall_s,
              static_cast<double>(jobs) / serial_wall_s);

  // --- worker sweep ---------------------------------------------------------
  support::Table table({"workers", "wall s", "sessions/s", "speedup",
                        "accepted", "rejected", "queue hwm", "divergence"});
  std::vector<CellResult> cells;
  for (const std::size_t workers : worker_counts) {
    cells.push_back(run_pool_cell(workload, workers, baseline));
    const auto& c = cells.back();
    table.add_row({std::to_string(c.workers), support::Table::num(c.wall_s, 2),
                   support::Table::num(c.throughput, 1),
                   support::Table::num(c.throughput / cells.front().throughput, 2),
                   std::to_string(c.metrics.accepted),
                   std::to_string(c.metrics.rejected),
                   std::to_string(c.metrics.queue_depth_hwm),
                   std::to_string(c.divergence)});
  }
  std::printf("%s\n", table.render().c_str());

  // --- offered-load sweep at the top worker count ---------------------------
  std::vector<LoadResult> load_cells;
  if (!smoke) {
    const std::size_t top_workers = worker_counts.back();
    const double capacity = cells.back().throughput;
    std::printf("open-loop offered load at %zu workers (capacity ~%.1f/s): "
                "beyond capacity the bounded queue sheds into busy "
                "rejections, goodput plateaus\n\n",
                top_workers, capacity);
    support::Table load_table(
        {"offered/s", "goodput/s", "submitted", "busy rejected"});
    for (const double factor : {0.5, 0.9, 1.5}) {
      load_cells.push_back(run_load_cell(workload, top_workers,
                                         factor * capacity, jobs));
      const auto& c = load_cells.back();
      load_table.add_row({support::Table::num(c.offered_per_s, 1),
                          support::Table::num(c.goodput_per_s, 1),
                          std::to_string(c.submitted),
                          std::to_string(c.busy_rejected)});
    }
    std::printf("%s\n", load_table.render().c_str());
  }

  // --- claims ---------------------------------------------------------------
  const double speedup = cells.back().throughput / cells.front().throughput;
  std::size_t total_divergence = 0;
  for (const auto& c : cells) total_divergence += c.divergence;
  const bool parity_ok = total_divergence == 0;
  // The 3x claim is only meaningful for the full 8-worker sweep; the smoke
  // sweep just requires scaling to not regress below 1x.
  const bool speedup_ok = smoke ? speedup > 0.8 : speedup >= 3.0;

  write_json("BENCH_service_throughput.json", smoke, workload,
             2 * worker_counts.back(), serial_wall_s, cells, load_cells,
             speedup, speedup_ok, parity_ok);

  std::printf("\nclaims:\n");
  std::printf("  [%s] verdict parity: pooled sessions match the serial "
              "baseline on all %zu jobs x %zu cells\n",
              parity_ok ? "ok" : "FAIL", jobs, cells.size());
  std::printf("  [%s] throughput at %zu workers: %.2fx vs 1 worker "
              "(%s required)\n",
              speedup_ok ? "ok" : "FAIL", worker_counts.back(), speedup,
              smoke ? ">0.8x" : ">=3x");
  return parity_ok && speedup_ok ? 0 : 1;
}

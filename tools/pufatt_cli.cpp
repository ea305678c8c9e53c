// pufatt-cli: operator tooling around the library.
//
//   pufatt-cli enroll <chip-seed> <record.bin>     manufacture + enroll a die
//   pufatt-cli inspect <record.bin>                summarize a record
//   pufatt-cli attest <chip-seed> <record.bin>     run one attestation
//   pufatt-cli disasm <record.bin>                 list the attested program
//   pufatt-cli serve-demo [workers] [sessions] [devices]
//              [--trace-out=<f>] [--trace-jsonl=<f>] [--metrics-out=<f>]
//              [--trace-sample=<r>]                 run the concurrent service
//   pufatt-cli serve <endpoint> [--workers=N] [--queue=N] [--devices=N]
//              [--fleet-seed=S] [--idle-timeout-ms=X] [--max-jobs=N]
//              [--trace-out=<f>] [--trace-jsonl=<f>] [--metrics-out=<f>]
//              [--trace-sample=<r>] [--metrics-jsonl=<f>]
//              [--stats-interval-ms=X]             serve attestation over a
//                                                  socket (tcp:HOST:PORT,
//                                                  port 0 = ephemeral, or
//                                                  unix:PATH) until SIGINT
//                                                  or N verdicts
//   pufatt-cli loadgen <endpoint> [--connections=N] [--jobs=N] [--devices=N]
//              [--max-busy-retries=N] [--max-retry-wait-ms=X]
//              [--trace-out=<f>] [--trace-jsonl=<f>] [--trace-sample=<r>]
//                                                  drive a simulated fleet
//                                                  against a running server
//   pufatt-cli fleet-stats <endpoint> [--watch-ms=X] [--samples=N]
//                                                  poll a live server's stats
//                                                  frame (one-shot JSON, or
//                                                  interval mode with delta
//                                                  rates)
//   pufatt-cli trace-report <trace-file>...        aggregate an exported
//                                                  trace; N files (client +
//                                                  server) are merged into
//                                                  cross-process timelines
//   pufatt-cli gen-crps <chip-seed> <count> <threads> <out.csv>
//                                                  dump protocol CRPs (batched)
//   pufatt-cli store-inspect <store-dir>           recover + summarize a store
//   pufatt-cli store-compact <store-dir> [--segment-bytes=<n>]
//                                                  fold the WAL into a snapshot
//
// The "device" is simulated (chip-seed = fab lottery), but the data flow is
// the real deployment one: enrollment produces a record file, the verifier
// later loads it and talks to the device.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adversary/tournament.hpp"
#include "alupuf/pipeline.hpp"
#include "core/distributed.hpp"
#include "core/protocol.hpp"
#include "core/serialize.hpp"
#include "cpu/disassembler.hpp"
#include "ecc/reed_muller.hpp"
#include "net/fleet.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "obs/trace_read.hpp"
#include "service/device_registry.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "store/records.hpp"
#include "store/recovery.hpp"
#include "store/verifier_store.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

using namespace pufatt;

namespace {

const ecc::ReedMuller1& code() {
  static const ecc::ReedMuller1 instance(5);
  return instance;
}

/// Every worker or thread count the CLI takes starts that many
/// std::threads, so a larger value is rejected as malformed.
constexpr std::uint64_t kMaxThreads = 1024;

int usage() {
  std::fprintf(stderr,
               "usage: pufatt-cli enroll <chip-seed> <record.bin>\n"
               "       pufatt-cli inspect <record.bin>\n"
               "       pufatt-cli attest <chip-seed> <record.bin>\n"
               "       pufatt-cli disasm <record.bin>\n"
               "       pufatt-cli serve-demo [workers] [sessions] [devices]\n"
               "                  [--trace-out=<trace.json>]   Chrome "
               "trace_event export\n"
               "                  [--trace-jsonl=<spans.jsonl>] line-oriented "
               "span export\n"
               "                  [--metrics-out=<metrics.json>] registry "
               "snapshot\n"
               "                  [--trace-sample=<rate>]      root-span "
               "sampling in [0,1]\n"
               "       pufatt-cli serve <endpoint> [--workers=<n>] "
               "[--queue=<n>]\n"
               "                  [--devices=<n>] [--fleet-seed=<s>]\n"
               "                  [--idle-timeout-ms=<x>] [--max-jobs=<n>]\n"
               "                  [--trace-out=<f>] [--trace-jsonl=<f>]\n"
               "                  [--metrics-out=<f>] [--trace-sample=<r>]\n"
               "                  [--metrics-jsonl=<f>] "
               "[--stats-interval-ms=<x>]\n"
               "       pufatt-cli loadgen <endpoint> [--connections=<n>] "
               "[--jobs=<n>]\n"
               "                  [--devices=<n>] [--max-busy-retries=<n>]\n"
               "                  [--max-retry-wait-ms=<x>] "
               "[--trace-out=<f>]\n"
               "                  [--trace-jsonl=<f>] [--trace-sample=<r>]\n"
               "       pufatt-cli fleet-stats <endpoint> [--watch-ms=<x>] "
               "[--samples=<n>]\n"
               "       pufatt-cli trace-report <trace-file>...\n"
               "       pufatt-cli gen-crps <chip-seed> <count> <threads> "
               "<out.csv>\n"
               "       pufatt-cli attack-matrix [--quick] [--seed=<s>] "
               "[--threads=<n>]\n"
               "                  [--out=<matrix.json>]\n"
               "       pufatt-cli store-inspect <store-dir>\n"
               "       pufatt-cli store-compact <store-dir> "
               "[--segment-bytes=<n>]\n"
               "worker and thread counts are at most %llu\n",
               static_cast<unsigned long long>(kMaxThreads));
  return 64;
}

/// Strict decimal/hex u64 parse; rejects trailing garbage, empty strings
/// and overflow ("12x" or "" must not silently read as 0).
bool parse_u64(const char* text, std::uint64_t& value) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 0);
  if (errno != 0 || end == text || *end != '\0') return false;
  value = parsed;
  return true;
}

int bad_argument(const char* what, const char* got) {
  std::fprintf(stderr, "error: malformed %s '%s'\n", what, got);
  return usage();
}

/// parse_u64 for a worker or thread count: also rejects counts above
/// kMaxThreads (the usage text names the bound).
bool parse_count(const char* text, std::uint64_t& value) {
  return parse_u64(text, value) && value <= kMaxThreads;
}

/// Strict double parse, same contract as parse_u64.
bool parse_f64(const char* text, double& value) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') return false;
  value = parsed;
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), out) == content.size();
  std::fclose(out);
  if (!ok) std::fprintf(stderr, "error: short write to '%s'\n", path.c_str());
  return ok;
}

bool read_file(const std::string& path, std::string& content) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return false;
  }
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), in)) > 0) {
    content.append(buffer, got);
  }
  const bool ok = std::ferror(in) == 0;
  std::fclose(in);
  if (!ok) std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
  return ok;
}

int cmd_enroll(std::uint64_t chip_seed, const std::string& path) {
  const auto profile = core::DeviceProfile::standard();
  const alupuf::PufDevice device(profile.puf_config, chip_seed, code());
  // Ship a deterministic demo firmware image.
  std::vector<std::uint32_t> firmware(2500);
  for (std::size_t i = 0; i < firmware.size(); ++i) {
    firmware[i] = static_cast<std::uint32_t>(
        support::SplitMix64::mix(chip_seed + i));
  }
  const auto record = core::enroll(
      device, profile, core::make_enrolled_image(profile, firmware));
  core::save_record_file(path, record);
  std::printf("enrolled chip %llu -> %s\n",
              static_cast<unsigned long long>(chip_seed), path.c_str());
  std::printf("  attested words : %zu\n", record.enrolled_image.size());
  std::printf("  honest cycles  : %llu\n",
              static_cast<unsigned long long>(record.honest_cycles));
  std::printf("  base clock     : %.1f MHz\n", record.profile.base_clock_mhz);
  return 0;
}

int cmd_inspect(const std::string& path) {
  const auto record = core::load_record_file(path);
  std::printf("enrollment record %s\n", path.c_str());
  std::printf("  PUF width        : %zu bits\n",
              record.profile.puf_config.width);
  std::printf("  delay table      : %zu gates\n",
              record.model.intrinsic_ps.size());
  std::printf("  SWAT rounds      : %u (PUF every %u)\n",
              record.profile.swat.rounds, record.profile.swat.puf_interval);
  std::printf("  attested region  : %u words\n",
              record.profile.swat.attest_words);
  std::printf("  honest cycles    : %llu\n",
              static_cast<unsigned long long>(record.honest_cycles));
  std::printf("  base clock       : %.1f MHz\n",
              record.profile.base_clock_mhz);
  return 0;
}

int cmd_attest(std::uint64_t chip_seed, const std::string& path) {
  const auto record = core::load_record_file(path);
  const alupuf::PufDevice device(record.profile.puf_config, chip_seed, code());
  const core::Verifier verifier(record, code());
  support::Xoshiro256pp rng(support::SplitMix64::mix(chip_seed));
  core::CpuProver prover(device, record, core::CpuProver::Variant::kHonest,
                         chip_seed ^ 0xA77E57);
  const core::Channel channel;
  const auto request = verifier.make_request(rng);
  const auto outcome = prover.respond(request);
  const auto result = verifier.verify(
      request, outcome.response,
      outcome.compute_us +
          channel.round_trip_us(8, outcome.response.wire_bytes()));
  std::printf("attestation of chip %llu against %s: %s\n",
              static_cast<unsigned long long>(chip_seed), path.c_str(),
              core::to_string(result.status));
  std::printf("  elapsed %.0f us, deadline %.0f us, %zu helper words\n",
              result.elapsed_us, result.deadline_us,
              outcome.response.helper_words.size());
  return result.accepted() ? 0 : 2;
}

int cmd_disasm(const std::string& path) {
  const auto record = core::load_record_file(path);
  // The program occupies the image up to the first halt; list a prefix.
  std::vector<std::uint32_t> prefix;
  for (const auto word : record.enrolled_image) {
    prefix.push_back(word);
    try {
      if (cpu::decode(word).op == cpu::Opcode::kHalt) break;
    } catch (const std::invalid_argument&) {
      break;  // data region reached
    }
  }
  std::fputs(cpu::disassemble_program(prefix).c_str(), stdout);
  return 0;
}

/// Observability outputs shared by serve-demo, serve and loadgen; all
/// optional.  serve additionally honours the live-telemetry pair
/// (metrics_jsonl + stats_interval_ms).
struct ServeDemoObs {
  std::string trace_out;      ///< Chrome trace_event JSON
  std::string trace_jsonl;    ///< line-oriented span export
  std::string metrics_out;    ///< registry snapshot JSON
  std::string metrics_jsonl;  ///< periodic stats snapshots (serve only)
  double trace_sample = 1.0;
  double stats_interval_ms = 250.0;

  bool tracing() const {
    return !trace_out.empty() || !trace_jsonl.empty() || !metrics_out.empty();
  }
};

// serve-demo: stand up the whole concurrent service in-process — enroll a
// small fleet, register it, then pump attestation jobs through the worker
// pool over a mildly lossy simulated radio and print the metrics.  One
// device answers with a tampered image so the rejected path shows up too.
int cmd_serve_demo(std::uint64_t workers, std::uint64_t sessions,
                   std::uint64_t devices, const ServeDemoObs& obs_out) {
  if (workers == 0 || sessions == 0 || devices == 0) {
    std::fprintf(stderr, "error: workers, sessions and devices must be > 0\n");
    return usage();
  }
  auto profile = core::DeviceProfile::small();

  std::printf("enrolling %llu devices...\n",
              static_cast<unsigned long long>(devices));
  support::Xoshiro256pp rng(0x5E47EDE40);
  std::vector<std::uint32_t> firmware(600);
  for (auto& w : firmware) w = static_cast<std::uint32_t>(rng.next());
  const auto image = core::make_enrolled_image(profile, firmware);

  service::DeviceRegistry registry;
  struct Fleet {
    std::unique_ptr<alupuf::PufDevice> device;
    core::EnrollmentRecord record;  ///< what the prover actually runs
    std::string id;
  };
  std::vector<Fleet> fleet(devices);
  for (std::uint64_t d = 0; d < devices; ++d) {
    fleet[d].id = "device-" + std::to_string(d);
    fleet[d].device = std::make_unique<alupuf::PufDevice>(
        profile.puf_config, 0xD1CE0000 + d, code());
    auto record = core::enroll(*fleet[d].device, profile, image);
    registry.store(fleet[d].id, record);
    fleet[d].record = std::move(record);
  }
  // The last device is compromised: it runs a tampered image against its
  // own (honest) enrollment record.
  auto& infected = fleet.back();
  for (std::size_t w = 700; w < 760 && w < infected.record.enrolled_image.size();
       ++w) {
    infected.record.enrolled_image[w] ^= 0xBAD0BAD0u;
  }

  service::EmulatorCache cache(registry, code(), devices);
  service::PoolConfig config;
  config.workers = workers;
  config.queue_capacity = 2 * workers;
  if (obs_out.tracing()) {
    // One tracer serves both layers: the pool parents its spans explicitly,
    // and the timing kernels' global-tracer spans land in the same export.
    obs::global_tracer().clear();
    obs::global_registry().reset();
    obs::set_global_trace(true, obs_out.trace_sample);
    config.tracer = &obs::global_tracer();
  }

  // Per-device accepted/rejected tallies, keyed by round-robin index.
  struct Tally {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
  };
  std::mutex tally_mutex;
  std::vector<Tally> tally(devices);
  service::VerifierPool pool(
      cache, config, [&](const service::JobResult& result) {
        std::lock_guard<std::mutex> lock(tally_mutex);
        auto& t = tally[result.tag % devices];
        if (result.outcome == service::JobOutcome::kAccepted) ++t.accepted;
        if (result.outcome == service::JobOutcome::kRejected) ++t.rejected;
      });

  core::FaultParams faults;
  faults.loss_prob = 0.02;

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t busy = 0;
  for (std::uint64_t s = 0; s < sessions; ++s) {
    const auto& target = fleet[s % devices];
    service::AttestationJob job;
    job.device_id = target.id;
    job.faults = faults;
    job.channel_seed = 0xC4A2 + 31 * s;
    job.rng_seed = 0x9E0 + 17 * s;
    job.tag = s;
    // Each job owns its prover (seeded per job): jobs never share mutable
    // prover state, and the PufDevice underneath is read-only.
    auto prover = std::make_shared<core::CpuProver>(
        *target.device, target.record, core::CpuProver::Variant::kHonest,
        job.rng_seed ^ 0xF00D);
    job.responder = [prover](const core::AttestationRequest& request) {
      auto outcome = prover->respond(request);
      return core::ProverReply{std::move(outcome.response),
                               outcome.compute_us};
    };
    // Offered load exceeds capacity on purpose: show the backpressure
    // path, then retry the job after the suggested wait.
    auto submitted = pool.submit(job);
    while (submitted.status == service::SubmitStatus::kRejectedBusy) {
      ++busy;
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<long>(submitted.retry_after_us)));
      submitted = pool.submit(job);
    }
  }
  pool.drain();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto snap = pool.metrics_snapshot();

  bool exports_ok = true;
  if (obs_out.tracing()) {
    obs::set_global_trace(false);
    service::publish_metrics(snap, cache.counters(), obs::global_registry());
    if (!obs_out.metrics_out.empty()) {
      exports_ok &= write_file(obs_out.metrics_out,
                               obs::global_registry().snapshot_json() + "\n");
    }
    auto& tracer = obs::global_tracer();
    if (!obs_out.trace_out.empty()) {
      exports_ok &= write_file(obs_out.trace_out, tracer.to_trace_event());
    }
    if (!obs_out.trace_jsonl.empty()) {
      exports_ok &= write_file(obs_out.trace_jsonl, tracer.to_jsonl());
    }
    std::printf("trace: %zu spans recorded, %llu dropped (sample rate %g)\n",
                tracer.records().size(),
                static_cast<unsigned long long>(tracer.dropped()),
                obs_out.trace_sample);
  }

  std::printf("\n%llu sessions on %llu workers over %llu devices "
              "in %.2f s (%.1f sessions/s)\n",
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(workers),
              static_cast<unsigned long long>(devices), wall_s,
              static_cast<double>(sessions) / wall_s);
  std::printf("client-side busy retries: %llu\n\n",
              static_cast<unsigned long long>(busy));
  std::fputs(snap.format().c_str(), stdout);

  // The security invariant: the tampered (last) device is NEVER accepted,
  // and if round-robin dispatch reached it at all, it was caught at least
  // once.  Honest devices may occasionally false-reject — that is the
  // PUF's intrinsic FNR (an availability cost the paper quantifies), not
  // a service defect — so it is reported, not failed on.
  const std::uint64_t infected_sessions = sessions / devices;
  const auto& infected_tally = tally.back();
  std::uint64_t honest_false_rejects = 0;
  for (std::uint64_t d = 0; d + 1 < devices; ++d) {
    honest_false_rejects += tally[d].rejected;
  }
  if (honest_false_rejects > 0) {
    std::printf("\nhonest false rejections (PUF noise): %llu\n",
                static_cast<unsigned long long>(honest_false_rejects));
  }
  const bool infected_ok =
      infected_tally.accepted == 0 &&
      (infected_sessions == 0 || infected_tally.rejected > 0);
  const bool ok = infected_ok && exports_ok &&
                  snap.accepted + snap.rejected + snap.inconclusive == sessions;
  std::printf("\n[%s] all sessions accounted; tampered device never "
              "accepted (%llu/%llu of its sessions rejected)\n",
              ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(infected_tally.rejected),
              static_cast<unsigned long long>(infected_sessions));
  return ok ? 0 : 1;
}

/// Nearest-rank percentile over a sorted sample; 0 on empty input.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// serve: the real network front end — SimFleet behind an AttestationServer
// on a TCP or Unix endpoint, until SIGINT/SIGTERM (or --max-jobs verdicts,
// for scripted runs).  The counterpart of `loadgen` below; together they
// are the two-terminal quickstart in the README.

std::atomic<bool> g_serve_interrupted{false};

void serve_signal_handler(int) { g_serve_interrupted.store(true); }

int cmd_serve(const net::Endpoint& endpoint, std::uint64_t workers,
              std::uint64_t queue, std::uint64_t devices,
              std::uint64_t fleet_seed, double idle_timeout_ms,
              std::uint64_t max_jobs, const ServeDemoObs& obs_out) {
  if (workers == 0 || devices == 0) {
    std::fprintf(stderr, "error: workers and devices must be > 0\n");
    return usage();
  }

  std::printf("enrolling %llu simulated devices...\n",
              static_cast<unsigned long long>(devices));
  std::fflush(stdout);
  net::SimFleet fleet(devices, fleet_seed);
  service::EmulatorCache cache(fleet.registry(), fleet.code(), fleet.size());

  net::ServerConfig config;
  config.endpoint = endpoint;
  config.pool.workers = workers;
  config.pool.queue_capacity = queue != 0 ? queue : 2 * workers;
  config.idle_timeout_ms = idle_timeout_ms;
  if (obs_out.tracing()) {
    // Same single-tracer setup as serve-demo: loop spans (net.*), pool
    // spans (pool.*, session.*) and any global-tracer store spans all
    // land in one export.
    obs::global_tracer().clear();
    obs::global_registry().reset();
    obs::set_global_trace(true, obs_out.trace_sample);
    config.tracer = &obs::global_tracer();
    config.pool.tracer = &obs::global_tracer();
  }
  // The stats frame and the metrics ticker work with or without tracing.
  config.registry = &obs::global_registry();
  config.metrics_jsonl = obs_out.metrics_jsonl;
  config.stats_interval_ms = obs_out.stats_interval_ms;
  net::AttestationServer server(
      cache,
      [&fleet](const net::JobRequest& request) {
        return fleet.responder_for(request.device_id, request.rng_seed);
      },
      config);

  // Scripts (and humans) need the resolved ephemeral port before any
  // client can connect, so this line prints — flushed — before serving.
  std::printf("listening on %s (%llu workers, queue %zu)\n",
              server.bound_endpoint().describe().c_str(),
              static_cast<unsigned long long>(workers),
              config.pool.queue_capacity);
  std::fflush(stdout);

  g_serve_interrupted.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);

  std::thread runner([&server] { server.run(); });
  for (;;) {
    if (g_serve_interrupted.load()) break;
    if (max_jobs != 0 && server.counters().verdicts_sent >= max_jobs) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  runner.join();

  bool exports_ok = true;
  if (obs_out.tracing()) {
    obs::set_global_trace(false);
    service::publish_metrics(server.pool().metrics_snapshot(),
                             cache.counters(), obs::global_registry());
    if (!obs_out.metrics_out.empty()) {
      exports_ok &= write_file(obs_out.metrics_out,
                               obs::global_registry().snapshot_json() + "\n");
    }
    auto& tracer = obs::global_tracer();
    if (!obs_out.trace_out.empty()) {
      exports_ok &= write_file(obs_out.trace_out, tracer.to_trace_event());
    }
    if (!obs_out.trace_jsonl.empty()) {
      exports_ok &= write_file(obs_out.trace_jsonl, tracer.to_jsonl());
    }
    std::printf("trace: %zu spans recorded, %llu dropped (sample rate %g)\n",
                tracer.records().size(),
                static_cast<unsigned long long>(tracer.dropped()),
                obs_out.trace_sample);
  }

  const auto c = server.counters();
  std::printf("served: %llu connections, %llu requests, %llu verdicts\n"
              "shed:   %llu busy replies, %llu idle evictions, %llu write-cap"
              ", %llu dropped verdicts\n"
              "errors: %llu framing, %llu payload\n",
              static_cast<unsigned long long>(c.accepted),
              static_cast<unsigned long long>(c.requests),
              static_cast<unsigned long long>(c.verdicts_sent),
              static_cast<unsigned long long>(c.busy_replies),
              static_cast<unsigned long long>(c.idle_evicted),
              static_cast<unsigned long long>(c.writeq_shed),
              static_cast<unsigned long long>(c.replies_dropped),
              static_cast<unsigned long long>(c.decode_errors),
              static_cast<unsigned long long>(c.payload_errors));
  return exports_ok ? 0 : 1;
}

int cmd_loadgen(const net::Endpoint& endpoint, std::uint64_t connections,
                std::uint64_t jobs_per_connection, std::uint64_t devices,
                std::uint64_t max_busy_retries, double max_retry_wait_ms,
                const ServeDemoObs& obs_out) {
  if (connections == 0 || jobs_per_connection == 0 || devices == 0) {
    std::fprintf(stderr,
                 "error: connections, jobs and devices must be > 0\n");
    return usage();
  }

  net::LoadGenConfig config;
  config.endpoint = endpoint;
  config.connections = connections;
  config.jobs_per_connection = jobs_per_connection;
  config.devices = devices;
  config.max_busy_retries = max_busy_retries;
  config.max_retry_wait_ms = max_retry_wait_ms;

  // The client side of a cross-process trace: a *local* tracer (its id
  // space must be independent of any server in this process), exported
  // for `trace-report <client.jsonl> <server.jsonl>`.
  obs::Tracer tracer;
  if (obs_out.tracing()) {
    tracer.set_sample_rate(obs_out.trace_sample);
    tracer.set_enabled(true);
    config.tracer = &tracer;
  }

  std::printf("driving %llu connections x %llu jobs against %s...\n",
              static_cast<unsigned long long>(connections),
              static_cast<unsigned long long>(jobs_per_connection),
              endpoint.describe().c_str());
  std::fflush(stdout);

  net::LoadGenerator generator(config);
  const auto report = generator.run();

  if (obs_out.tracing()) {
    tracer.set_enabled(false);
    bool exports_ok = true;
    if (!obs_out.trace_out.empty()) {
      exports_ok &= write_file(obs_out.trace_out, tracer.to_trace_event());
    }
    if (!obs_out.trace_jsonl.empty()) {
      exports_ok &= write_file(obs_out.trace_jsonl, tracer.to_jsonl());
    }
    std::printf("trace: %zu spans recorded, %llu dropped (sample rate %g)\n",
                tracer.records().size(),
                static_cast<unsigned long long>(tracer.dropped()),
                obs_out.trace_sample);
    if (!exports_ok) return 1;
  }

  std::vector<double> latencies;
  latencies.reserve(report.by_job.size());
  for (const auto& verdict : report.by_job) {
    if (verdict.completed) latencies.push_back(verdict.latency_us);
  }
  std::sort(latencies.begin(), latencies.end());

  std::printf(
      "verdicts: %llu/%zu (%llu accepted, %llu rejected, %llu inconclusive, "
      "%llu unknown)\n"
      "backpressure: %llu busy replies obeyed, %llu jobs exhausted retries\n"
      "failures: %llu connect, %llu disconnect, %llu decode, %llu error "
      "replies\n"
      "wall: %.2fs  goodput: %.1f verdicts/s  latency p50/p95: %.1f/%.1f ms\n",
      static_cast<unsigned long long>(report.verdicts), report.jobs,
      static_cast<unsigned long long>(report.accepted),
      static_cast<unsigned long long>(report.rejected),
      static_cast<unsigned long long>(report.inconclusive),
      static_cast<unsigned long long>(report.unknown_device),
      static_cast<unsigned long long>(report.busy_replies),
      static_cast<unsigned long long>(report.retries_exhausted),
      static_cast<unsigned long long>(report.connect_failures),
      static_cast<unsigned long long>(report.disconnects),
      static_cast<unsigned long long>(report.decode_errors),
      static_cast<unsigned long long>(report.error_replies), report.wall_s,
      report.goodput_per_s(), percentile(latencies, 0.5) / 1e3,
      percentile(latencies, 0.95) / 1e3);
  return report.verdicts == report.jobs ? 0 : 1;
}

// trace-report: aggregate an exported trace (either format) into
// per-stage latency percentiles.  Host-time stages (queue wait, emulator
// build, verify, ...) come from span durations; the channel RTT and the
// delta-margin column come from the simulated timings the session spans
// carry as notes — margin = deadline_us - elapsed_us is the headroom the
// paper's timing bound had on each verified attempt, the first number to
// look at when honest devices start false-rejecting.
int cmd_trace_report(const std::string& path) {
  std::string text;
  if (!read_file(path, text)) return 1;
  const auto spans = obs::read_trace(text);
  if (spans.empty()) {
    std::fprintf(stderr, "error: no spans in '%s'\n", path.c_str());
    return 1;
  }

  struct Stage {
    std::vector<double> dur_us;
    std::vector<double> margins_us;  ///< deadline - elapsed, where noted
  };
  std::map<std::string, Stage> stages;
  std::vector<double> rtt_us;  ///< simulated RTT of delivered attempts
  for (const auto& span : spans) {
    Stage& stage = stages[span.name];
    stage.dur_us.push_back(span.dur_us);
    if (span.notes.count("deadline_us") != 0) {
      stage.margins_us.push_back(span.note_or("deadline_us", 0.0) -
                                 span.note_or("elapsed_us", 0.0));
    }
    if (span.name == "session.attempt" &&
        span.note_or("delivered", 0.0) != 0.0) {
      rtt_us.push_back(span.note_or("elapsed_us", 0.0));
    }
  }

  std::printf("trace report: %zu spans, %zu stages (%s)\n\n", spans.size(),
              stages.size(), path.c_str());
  std::printf("%-18s %7s %10s %10s %10s %10s %16s\n", "stage", "count",
              "p50_us", "p90_us", "p99_us", "max_us", "delta_margin_p50");
  for (auto& [name, stage] : stages) {
    std::sort(stage.dur_us.begin(), stage.dur_us.end());
    std::printf("%-18s %7zu %10.1f %10.1f %10.1f %10.1f", name.c_str(),
                stage.dur_us.size(), percentile(stage.dur_us, 0.5),
                percentile(stage.dur_us, 0.9), percentile(stage.dur_us, 0.99),
                stage.dur_us.back());
    if (stage.margins_us.empty()) {
      std::printf(" %16s\n", "-");
    } else {
      std::sort(stage.margins_us.begin(), stage.margins_us.end());
      std::printf(" %16.1f\n", percentile(stage.margins_us, 0.5));
    }
  }

  // The span durations above are host time; these two are the simulated
  // protocol clock, which is what the delta bound actually constrains.
  std::sort(rtt_us.begin(), rtt_us.end());
  std::printf("\nchannel_rtt_us (simulated, delivered attempts): "
              "count=%zu p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
              rtt_us.size(), percentile(rtt_us, 0.5), percentile(rtt_us, 0.9),
              percentile(rtt_us, 0.99), rtt_us.empty() ? 0.0 : rtt_us.back());

  std::vector<double> margins;
  for (const auto& [name, stage] : stages) {
    margins.insert(margins.end(), stage.margins_us.begin(),
                   stage.margins_us.end());
  }
  std::sort(margins.begin(), margins.end());
  const std::size_t violations = static_cast<std::size_t>(
      std::lower_bound(margins.begin(), margins.end(), 0.0) - margins.begin());
  std::printf("delta_margin_us (deadline - elapsed, verified attempts): "
              "count=%zu min=%.1f p10=%.1f p50=%.1f violations=%zu\n",
              margins.size(), margins.empty() ? 0.0 : margins.front(),
              percentile(margins, 0.1), percentile(margins, 0.5), violations);
  return 0;
}

// trace-report with N files: the cross-process merge (obs/trace_merge).
// Client and server exports join on trace id; each joined verdict's
// client latency is decomposed into wire RTT / queue wait / verify /
// store fsync, with per-stage percentiles and the same δ-margin
// violation table the single-file report prints.
int cmd_trace_merge_report(const std::vector<std::string>& paths) {
  std::vector<obs::TraceFile> files;
  for (const auto& path : paths) {
    std::string text;
    if (!read_file(path, text)) return 1;
    obs::TraceFile file;
    file.label = path;
    file.spans = obs::read_trace(text);
    files.push_back(std::move(file));
  }
  auto report = obs::merge_traces(files);

  std::printf("trace merge: %zu files, %zu spans\n", report.files,
              report.spans);
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::printf("  [%zu] %s: %zu spans\n", i, files[i].label.c_str(),
                files[i].spans.size());
  }

  std::printf("\n%-18s %7s %10s %10s %10s %10s\n", "stage", "count", "p50_us",
              "p90_us", "p99_us", "max_us");
  for (auto& [name, durs] : report.stage_us) {
    std::sort(durs.begin(), durs.end());
    std::printf("%-18s %7zu %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
                durs.size(), percentile(durs, 0.5), percentile(durs, 0.9),
                percentile(durs, 0.99), durs.back());
  }

  std::printf("\ncross-process verdicts: joined %zu/%zu client roots "
              "(%.1f%%), %zu server roots\n",
              report.joined, report.client_roots,
              100.0 * report.join_fraction(), report.server_roots);

  struct Column {
    const char* name;
    std::vector<double> values;
  };
  Column columns[] = {{"client_total", {}}, {"server_total", {}},
                      {"wire_rtt", {}},     {"queue_wait", {}},
                      {"verify", {}},       {"store_fsync", {}}};
  std::vector<double> margins;
  for (const auto& verdict : report.verdicts) {
    if (!verdict.joined) continue;
    columns[0].values.push_back(verdict.client_us);
    columns[1].values.push_back(verdict.server_us);
    columns[2].values.push_back(verdict.wire_rtt_us);
    columns[3].values.push_back(verdict.queue_us);
    columns[4].values.push_back(verdict.verify_us);
    columns[5].values.push_back(verdict.store_fsync_us);
    margins.insert(margins.end(), verdict.margins_us.begin(),
                   verdict.margins_us.end());
  }
  std::printf("%-18s %7s %10s %10s %10s %10s\n", "verdict stage", "count",
              "p50_us", "p90_us", "p99_us", "max_us");
  for (auto& column : columns) {
    std::sort(column.values.begin(), column.values.end());
    std::printf("%-18s %7zu %10.1f %10.1f %10.1f %10.1f\n", column.name,
                column.values.size(), percentile(column.values, 0.5),
                percentile(column.values, 0.9), percentile(column.values, 0.99),
                column.values.empty() ? 0.0 : column.values.back());
  }

  const std::size_t shown = std::min<std::size_t>(report.verdicts.size(), 16);
  std::printf("\nper-verdict timeline (first %zu of %zu):\n", shown,
              report.verdicts.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& v = report.verdicts[i];
    if (v.joined) {
      std::printf("  trace=%llu outcome=%.0f client=%.1fus = wire %.1f + "
                  "queue %.1f + verify %.1f (fsync %.1f) busy=%.0f\n",
                  static_cast<unsigned long long>(v.trace), v.outcome,
                  v.client_us, v.wire_rtt_us, v.queue_us, v.verify_us,
                  v.store_fsync_us, v.busy_retries);
    } else {
      std::printf("  trace=%llu outcome=%.0f client=%.1fus (no server half)\n",
                  static_cast<unsigned long long>(v.trace), v.outcome,
                  v.client_us);
    }
  }

  std::sort(margins.begin(), margins.end());
  const std::size_t violations = static_cast<std::size_t>(
      std::lower_bound(margins.begin(), margins.end(), 0.0) - margins.begin());
  std::printf("\ndelta_margin_us (deadline - elapsed, joined verdicts): "
              "count=%zu min=%.1f p10=%.1f p50=%.1f violations=%zu\n",
              margins.size(), margins.empty() ? 0.0 : margins.front(),
              percentile(margins, 0.1), percentile(margins, 0.5), violations);
  return 0;
}

// fleet-stats: poll a live server's kStatsRequest admin frame.  One-shot
// mode prints the raw byte-stable JSON (scriptable: pipe into jq); watch
// mode samples every --watch-ms and prints delta rates, the "top" view
// of a running fleet.

/// One stats round trip over a polled non-blocking socket.  Returns false
/// on any transport or framing failure.
bool stats_roundtrip(int fd, net::FrameDecoder& decoder, std::uint64_t tag,
                     double timeout_ms, std::string& json) {
  const auto bytes = net::encode_stats_request(net::StatsRequest{tag});
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ::pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, static_cast<int>(timeout_ms)) <= 0) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  std::vector<net::FrameDecoder::Frame> frames;
  for (;;) {
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      if (!decoder.feed(buf, static_cast<std::size_t>(n), frames)) {
        return false;
      }
      for (const auto& frame : frames) {
        if (frame.type != net::MsgType::kStatsReply) continue;
        const auto reply = net::decode_stats_reply(frame.payload);
        if (reply.tag != tag) continue;
        json = reply.stats_json;
        return true;
      }
      frames.clear();
      continue;
    }
    if (n == 0) return false;  // server closed on us
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ::pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(timeout_ms)) <= 0) return false;
      continue;
    }
    if (errno == EINTR) continue;
    return false;
  }
}

int cmd_fleet_stats(const net::Endpoint& endpoint, double watch_ms,
                    std::uint64_t samples) {
  net::Fd fd;
  try {
    fd = net::connect_to(endpoint);
  } catch (const net::NetError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  net::FrameDecoder decoder;

  if (watch_ms <= 0.0) {  // one-shot: raw JSON, nothing else on stdout
    std::string json;
    if (!stats_roundtrip(fd.get(), decoder, 0xF1EE7, 5'000.0, json)) {
      std::fprintf(stderr, "error: stats request failed\n");
      return 1;
    }
    std::printf("%s\n", json.c_str());
    return 0;
  }

  g_serve_interrupted.store(false);
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);

  const auto section_num = [](const obs::JsonValue& doc, const char* section,
                              const char* key) {
    const auto* s = doc.get(section);
    return s != nullptr ? s->number_or(key, 0.0) : 0.0;
  };
  std::printf("%10s %12s %10s %12s %12s %8s %8s\n", "t_s", "verdicts/s",
              "busy/s", "bytes_in/s", "bytes_out/s", "queue", "conns");
  std::fflush(stdout);

  obs::JsonValue prev;
  std::uint64_t prev_ns = 0;
  const std::uint64_t start_ns = obs::monotonic_ns();
  for (std::uint64_t s = 0; samples == 0 || s < samples; ++s) {
    if (g_serve_interrupted.load()) break;
    std::string json;
    if (!stats_roundtrip(fd.get(), decoder, 0xF1EE7 + s, 5'000.0, json)) {
      std::fprintf(stderr, "error: stats request failed (server gone?)\n");
      return 1;
    }
    const std::uint64_t now = obs::monotonic_ns();
    obs::JsonValue doc;
    try {
      doc = obs::parse_json(json);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: malformed stats JSON: %s\n", e.what());
      return 1;
    }
    if (prev_ns != 0) {
      const double dt_s = static_cast<double>(now - prev_ns) / 1e9;
      const auto rate = [&](const char* section, const char* key) {
        return dt_s > 0.0 ? (section_num(doc, section, key) -
                             section_num(prev, section, key)) /
                                dt_s
                          : 0.0;
      };
      std::printf("%10.2f %12.1f %10.1f %12.0f %12.0f %8.0f %8.0f\n",
                  static_cast<double>(now - start_ns) / 1e9,
                  rate("net", "verdicts_sent"), rate("net", "busy_replies"),
                  rate("net", "bytes_in"), rate("net", "bytes_out"),
                  section_num(doc, "pool", "queue_depth"),
                  section_num(doc, "net", "open_connections"));
      std::fflush(stdout);
    }
    prev = std::move(doc);
    prev_ns = now;
    if (samples == 0 || s + 1 < samples) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(watch_ms * 1e3)));
    }
  }
  return 0;
}

// gen-crps: dump protocol-level CRPs (64-bit challenge -> obfuscated
// response) over the batched device path — query_batch on fixed-size shards
// pulled by a small worker pool.  Shard boundaries and shard RNGs depend
// only on (chip-seed, shard index), never on the thread count, so the same
// invocation produces byte-identical CSVs at any parallelism (there is a
// ctest comparing 1 vs 3 threads).
int cmd_gen_crps(std::uint64_t chip_seed, std::uint64_t count,
                 std::uint64_t threads, const std::string& path) {
  if (count == 0 || threads == 0) {
    std::fprintf(stderr, "error: count and threads must be > 0\n");
    return usage();
  }
  const auto profile = core::DeviceProfile::standard();
  const alupuf::PufDevice device(profile.puf_config, chip_seed, code());
  const auto env = variation::Environment::nominal();

  constexpr std::size_t kBlock = 256;  // determinism unit
  const auto n = static_cast<std::size_t>(count);
  std::vector<std::uint64_t> challenges(n);
  std::vector<std::uint64_t> responses(n);
  const std::size_t workers =
      std::min<std::size_t>(threads, (n + kBlock - 1) / kBlock);
  std::vector<alupuf::AluPufBatchScratch> scratch(workers);
  support::parallel_blocks(
      n, kBlock, workers,
      [&](std::size_t shard, std::size_t begin, std::size_t end,
          std::size_t slot) {
        // Same shard-generator derivation as the mlattack dataset builders.
        support::Xoshiro256pp rng(support::SplitMix64::mix(
            chip_seed ^ (0xA5A5A5A5A5A5A5A5ULL + shard)));
        for (std::size_t i = begin; i < end; ++i) challenges[i] = rng.next();
        const auto outputs =
            device.query_batch(challenges.data() + begin, end - begin, env,
                               rng, nullptr, &scratch[slot]);
        for (std::size_t i = begin; i < end; ++i) {
          responses[i] = outputs[i - begin].z.to_u64();
        }
      });

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(out, "challenge_hex,response_hex\n");
  for (std::size_t i = 0; i < n; ++i) {
    std::fprintf(out, "%016llx,%08llx\n",
                 static_cast<unsigned long long>(challenges[i]),
                 static_cast<unsigned long long>(responses[i]));
  }
  std::fclose(out);
  std::printf("wrote %zu CRPs (chip %llu, %zu worker(s), block %zu) -> %s\n",
              n, static_cast<unsigned long long>(chip_seed), workers, kBlock,
              path.c_str());
  return 0;
}

// store-inspect: run recovery read-only and print what it saw — the first
// tool to reach for after an unclean shutdown ("did the log survive, how
// many records, is the tail torn, what state comes back").
int cmd_store_inspect(const std::string& dir) {
  if (!std::filesystem::exists(dir)) {
    std::fprintf(stderr, "error: no such store directory '%s'\n", dir.c_str());
    return 1;
  }
  const auto state = store::recover(dir);
  const auto& stats = state.stats;
  std::printf("store %s\n", dir.c_str());
  if (stats.snapshot_present) {
    std::printf("  snapshot        : %llu bytes, WAL watermark %llu\n",
                static_cast<unsigned long long>(stats.snapshot_bytes),
                static_cast<unsigned long long>(stats.snapshot_watermark));
  } else {
    std::printf("  snapshot        : none\n");
  }
  std::printf("  WAL             : %zu segment(s), %llu bytes%s\n",
              stats.wal_segments,
              static_cast<unsigned long long>(stats.wal_bytes),
              stats.torn_tail ? ", torn tail (tolerated)" : "");
  if (stats.wal_segments_skipped > 0) {
    std::printf("  stale segments  : %zu skipped (at/below the snapshot "
                "watermark; deleted on next open)\n",
                stats.wal_segments_skipped);
  }
  std::printf("  records replayed: %zu\n", stats.records_replayed);
  for (const auto& [type, count] : stats.records_by_type) {
    std::printf("    %-13s : %zu\n", store::record_type_name(type), count);
  }
  std::printf("  devices         : %zu enrolled, %zu with CRP databases\n",
              stats.devices, stats.crp_devices);
  std::printf("  CRP entries left: %zu\n", stats.crp_remaining);
  for (const auto& id : state.ledger->device_ids()) {
    std::printf("    %-13s : %zu unused\n", id.c_str(),
                *state.ledger->remaining(id));
  }
  return 0;
}

// store-compact: recover, fold everything into a fresh snapshot, restart
// the log.  Safe on a live directory only if the owning process is down
// (the store assumes single-process ownership).
int cmd_store_compact(const std::string& dir, std::uint64_t segment_bytes) {
  if (!std::filesystem::exists(dir)) {
    std::fprintf(stderr, "error: no such store directory '%s'\n", dir.c_str());
    return 1;
  }
  store::StoreOptions options;
  if (segment_bytes > 0) {
    options.wal.segment_bytes = static_cast<std::size_t>(segment_bytes);
  }
  const auto db = store::VerifierStore::open(dir, options);
  const auto& before = db->recovery_stats();
  std::printf("compacting %s: %zu WAL segment(s), %llu bytes, "
              "%zu record(s) folded\n",
              dir.c_str(), before.wal_segments,
              static_cast<unsigned long long>(before.wal_bytes),
              before.records_replayed);
  db->compact();
  std::printf("  snapshot        : %llu bytes\n",
              static_cast<unsigned long long>(
                  std::filesystem::file_size(store::snapshot_path(dir))));
  std::printf("  WAL restarted at segment %llu\n",
              static_cast<unsigned long long>(
                  db->wal().current_segment_index()));
  std::printf("  devices         : %zu enrolled, %zu CRP entries left\n",
              db->registry().size(), db->crp_ledger().total_remaining());
  return 0;
}

// attack-matrix: run the adversary-lab tournament (src/adversary) over the
// standard variant x attack roster and print the matrix.  The regression
// gates live in bench/attack_matrix; this subcommand is the exploration
// face — pick a seed and a thread count, and look at the numbers.
int cmd_attack_matrix(bool quick, std::uint64_t seed, std::uint64_t threads,
                      const std::string& out) {
  adversary::TournamentConfig config;
  if (quick) {
    config.budgets = {256, 1024};
    config.test_queries = 600;
    config.replay_rounds = 16;
  } else {
    config.budgets = {1000, 4000, 12000};
    config.test_queries = 2000;
    config.replay_rounds = 40;
  }
  config.threads = static_cast<std::size_t>(threads);
  config.seed = seed;

  adversary::LabParams params;
  if (quick) {
    params.logreg.epochs = 25;
    params.mlp.epochs = 15;
    params.cmaes.cmaes.max_generations = 80;
    params.cmaes.cmaes.patience = 20;
    params.cmaes.fitness_subsample = 2000;
  }

  adversary::Tournament tournament(config);
  adversary::add_standard_lab(tournament, params);
  std::printf("attack matrix: %zu variants x %zu attacks, %zu budgets "
              "(%s mode), seed %llu\n\n",
              tournament.variant_count(), tournament.attack_count(),
              config.budgets.size(), quick ? "quick" : "full",
              static_cast<unsigned long long>(seed));
  const auto result = tournament.run();

  support::Table table({"variant", "attack", "budget", "queries", "train acc",
                        "test acc / replay"});
  for (const adversary::Cell& cell : result.cells) {
    for (const adversary::AttackReport& r : cell.reports) {
      table.add_row({cell.variant, cell.attack, std::to_string(r.budget),
                     std::to_string(r.queries_used),
                     support::Table::num(r.train_accuracy, 3),
                     support::Table::num(r.test_accuracy, 3) +
                         (r.replay_acceptance >= 0.0 ? " (replay)" : "")});
    }
  }
  std::printf("%s", table.render().c_str());

  if (!out.empty()) {
    if (!write_file(out, adversary::matrix_json(result))) return 1;
    std::printf("\nwrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "enroll") {
      if (argc != 4) return usage();
      std::uint64_t seed = 0;
      if (!parse_u64(argv[2], seed)) return bad_argument("chip-seed", argv[2]);
      return cmd_enroll(seed, argv[3]);
    }
    if (cmd == "inspect") {
      return argc == 3 ? cmd_inspect(argv[2]) : usage();
    }
    if (cmd == "attest") {
      if (argc != 4) return usage();
      std::uint64_t seed = 0;
      if (!parse_u64(argv[2], seed)) return bad_argument("chip-seed", argv[2]);
      return cmd_attest(seed, argv[3]);
    }
    if (cmd == "disasm") {
      return argc == 3 ? cmd_disasm(argv[2]) : usage();
    }
    if (cmd == "serve-demo") {
      ServeDemoObs obs_out;
      std::vector<const char*> positional;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
          positional.push_back(argv[i]);
          continue;
        }
        const auto eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (flag == "--trace-out" || flag == "--trace-jsonl" ||
            flag == "--metrics-out") {
          if (value.empty()) {
            std::fprintf(stderr, "error: %s needs a file path\n", flag.c_str());
            return usage();
          }
          (flag == "--trace-out"     ? obs_out.trace_out
           : flag == "--trace-jsonl" ? obs_out.trace_jsonl
                                     : obs_out.metrics_out) = value;
        } else if (flag == "--trace-sample") {
          if (!parse_f64(value.c_str(), obs_out.trace_sample) ||
              obs_out.trace_sample < 0.0 || obs_out.trace_sample > 1.0) {
            return bad_argument("sample rate (want [0,1])", value.c_str());
          }
        } else {
          // An operator mistyping --trace-ot must get a hard error, not a
          // silently untraced run.
          std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
          return usage();
        }
      }
      if (positional.size() > 3) return usage();
      std::uint64_t workers = 4, sessions = 32, devices = 6;
      if (positional.size() > 0 &&
          !parse_count(positional[0], workers)) {
        return bad_argument("worker count", positional[0]);
      }
      if (positional.size() > 1 && !parse_u64(positional[1], sessions)) {
        return bad_argument("session count", positional[1]);
      }
      if (positional.size() > 2 && !parse_u64(positional[2], devices)) {
        return bad_argument("device count", positional[2]);
      }
      return cmd_serve_demo(workers, sessions, devices, obs_out);
    }
    if (cmd == "serve" || cmd == "loadgen" || cmd == "fleet-stats") {
      // Shared shape: one positional endpoint, then --key=value flags with
      // the serve-demo strictness (unknown flag or malformed value = 64).
      std::string endpoint_spec;
      std::map<std::string, std::string> flags;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
          if (!endpoint_spec.empty()) return usage();
          endpoint_spec = arg;
          continue;
        }
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq + 1 == arg.size()) {
          std::fprintf(stderr, "error: %s needs a value\n",
                       arg.substr(0, eq).c_str());
          return usage();
        }
        flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
      if (endpoint_spec.empty()) return usage();

      net::Endpoint endpoint;
      try {
        endpoint = net::Endpoint::parse(endpoint_spec);
      } catch (const net::NetError&) {
        return bad_argument("endpoint (want tcp:HOST:PORT or unix:PATH)",
                            endpoint_spec.c_str());
      }

      const auto take_u64 = [&](const char* name, std::uint64_t& value,
                                bool (*parse)(const char*, std::uint64_t&) =
                                    parse_u64) {
        const auto it = flags.find(name);
        if (it == flags.end()) return true;
        const bool ok = parse(it->second.c_str(), value);
        if (!ok) bad_argument(name, it->second.c_str());
        flags.erase(it);
        return ok;
      };
      const auto take_f64 = [&](const char* name, double& value) {
        const auto it = flags.find(name);
        if (it == flags.end()) return true;
        const bool ok =
            parse_f64(it->second.c_str(), value) && value >= 0.0;
        if (!ok) bad_argument(name, it->second.c_str());
        flags.erase(it);
        return ok;
      };
      const auto take_str = [&](const char* name, std::string& value) {
        const auto it = flags.find(name);
        if (it == flags.end()) return;
        value = it->second;
        flags.erase(it);
      };
      const auto reject_leftovers = [&] {
        if (flags.empty()) return false;
        std::fprintf(stderr, "error: unknown flag '--%s'\n",
                     flags.begin()->first.c_str());
        return true;
      };
      // Sample rates are f64 flags with an extra upper bound.
      const auto take_sample = [&](double& value) {
        if (!take_f64("trace-sample", value)) return false;
        if (value > 1.0) {
          bad_argument("trace-sample (want [0,1])", "");
          return false;
        }
        return true;
      };

      if (cmd == "serve") {
        std::uint64_t workers = 4, queue = 0, devices = 8;
        std::uint64_t fleet_seed = 0x5E47EDE40, max_jobs = 0;
        double idle_timeout_ms = 30'000.0;
        ServeDemoObs obs_out;
        take_str("trace-out", obs_out.trace_out);
        take_str("trace-jsonl", obs_out.trace_jsonl);
        take_str("metrics-out", obs_out.metrics_out);
        take_str("metrics-jsonl", obs_out.metrics_jsonl);
        if (!take_u64("workers", workers, parse_count) ||
            !take_u64("queue", queue) ||
            !take_u64("devices", devices) ||
            !take_u64("fleet-seed", fleet_seed) ||
            !take_u64("max-jobs", max_jobs) ||
            !take_f64("idle-timeout-ms", idle_timeout_ms) ||
            !take_f64("stats-interval-ms", obs_out.stats_interval_ms) ||
            !take_sample(obs_out.trace_sample)) {
          return 64;
        }
        if (reject_leftovers()) return usage();
        return cmd_serve(endpoint, workers, queue, devices, fleet_seed,
                         idle_timeout_ms, max_jobs, obs_out);
      }

      if (cmd == "fleet-stats") {
        double watch_ms = 0.0;  // 0 = one-shot raw JSON
        std::uint64_t samples = 0;
        if (!take_f64("watch-ms", watch_ms) || !take_u64("samples", samples)) {
          return 64;
        }
        if (reject_leftovers()) return usage();
        return cmd_fleet_stats(endpoint, watch_ms, samples);
      }

      std::uint64_t connections = 16, jobs = 4, devices = 8;
      std::uint64_t max_busy_retries = 64;
      double max_retry_wait_ms = 50.0;
      ServeDemoObs obs_out;
      take_str("trace-out", obs_out.trace_out);
      take_str("trace-jsonl", obs_out.trace_jsonl);
      if (!take_u64("connections", connections) || !take_u64("jobs", jobs) ||
          !take_u64("devices", devices) ||
          !take_u64("max-busy-retries", max_busy_retries) ||
          !take_f64("max-retry-wait-ms", max_retry_wait_ms) ||
          !take_sample(obs_out.trace_sample)) {
        return 64;
      }
      if (reject_leftovers()) return usage();
      return cmd_loadgen(endpoint, connections, jobs, devices,
                         max_busy_retries, max_retry_wait_ms, obs_out);
    }
    if (cmd == "trace-report") {
      if (argc < 3) return usage();
      std::vector<std::string> paths;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
          std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
          return usage();
        }
        paths.push_back(arg);
      }
      // One file keeps the original single-process report; two or more
      // run the cross-process merge (client + server exports).
      return paths.size() == 1 ? cmd_trace_report(paths[0].c_str())
                               : cmd_trace_merge_report(paths);
    }
    if (cmd == "gen-crps") {
      if (argc > 6 && std::string(argv[6]).rfind("--", 0) == 0) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", argv[6]);
      }
      if (argc != 6) return usage();
      std::uint64_t seed = 0, count = 0, threads = 0;
      if (!parse_u64(argv[2], seed)) return bad_argument("chip-seed", argv[2]);
      if (!parse_u64(argv[3], count)) return bad_argument("count", argv[3]);
      if (!parse_count(argv[4], threads)) {
        return bad_argument("thread count", argv[4]);
      }
      return cmd_gen_crps(seed, count, threads, argv[5]);
    }
    if (cmd == "store-inspect") {
      if (argc != 3) return usage();
      const std::string arg = argv[2];
      if (arg.rfind("--", 0) == 0) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
        return usage();
      }
      return cmd_store_inspect(arg);
    }
    if (cmd == "store-compact") {
      std::string dir;
      std::uint64_t segment_bytes = 0;  // 0 = keep the default
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--segment-bytes=", 0) == 0) {
          const std::string value = arg.substr(16);
          if (!parse_u64(value.c_str(), segment_bytes) || segment_bytes == 0) {
            return bad_argument("segment size (want > 0)", value.c_str());
          }
        } else if (arg.rfind("--", 0) == 0) {
          std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
          return usage();
        } else if (dir.empty()) {
          dir = arg;
        } else {
          return usage();
        }
      }
      if (dir.empty()) return usage();
      return cmd_store_compact(dir, segment_bytes);
    }
    if (cmd == "attack-matrix") {
      bool quick = false;
      std::uint64_t seed = 0xA17AC4ULL;  // the bench's fixed matrix seed
      std::uint64_t threads = 1;
      std::string out;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
          quick = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
          const std::string value = arg.substr(7);
          if (!parse_u64(value.c_str(), seed)) {
            return bad_argument("seed", value.c_str());
          }
        } else if (arg.rfind("--threads=", 0) == 0) {
          const std::string value = arg.substr(10);
          if (!parse_count(value.c_str(), threads) || threads == 0) {
            return bad_argument("thread count", value.c_str());
          }
        } else if (arg.rfind("--out=", 0) == 0) {
          out = arg.substr(6);
          if (out.empty()) {
            std::fprintf(stderr, "error: --out needs a file name\n");
            return usage();
          }
        } else {
          std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
          return usage();
        }
      }
      return cmd_attack_matrix(quick, seed, threads, out);
    }
    if (cmd.empty()) return usage();
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", cmd.c_str());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// wire_hot and wire_sweep: the serving path over TCP loopback.
//
// An AttestationServer with 2 pool workers serves a SimFleet (small
// profile, as served) with zero link faults; a LoadGenerator with 4
// connections drives it closed-loop: each connection sends its next job
// only after the previous verdict arrived, so load follows the server.
// The timed window is a series of load-generator rounds.
//
//   wire_hot    8 devices, EmulatorCache of 8, warmed until every
//               verifier is cached: frame codec, pool, session, prover
//               simulation and verify with the working set in cache.
//   wire_sweep  64 devices visited round-robin, EmulatorCache of 16: the
//               working set is 4x the cache, so nearly every attestation
//               builds its verifier.  Measures verifier construction and
//               per-device memory; a change trading hit cost for miss
//               cost splits wire_hot from wire_sweep.
//
// Jobs per connection are fleet/4 modulo the fleet size, so the four
// connections walk the fleet a quarter apart and never queue on the same
// device lease.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/channel.hpp"
#include "net/fleet.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "obs/trace_read.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pufatt;

namespace {

constexpr std::size_t kConnections = 4;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kQueueCapacity = 64;
constexpr std::size_t kParityPerRound = 2;
constexpr std::size_t kProbeSamples = 32;

struct Shape {
  std::size_t fleet = 0;
  std::size_t cache = 0;
  std::size_t round_jobs = 0;  ///< per connection, timed rounds
  std::size_t warm_jobs = 0;   ///< per connection, warm-up round
  bool hot = false;
};

Shape shape_for(const std::string& workload) {
  if (workload == "wire_hot") return Shape{8, 8, 98, 10, true};
  return Shape{64, 16, 80, 16, false};
}

/// Times every prover simulation the server runs while tapping, and keeps
/// a spaced sample of (request, reply) pairs for the layer probe.
struct ProverTap {
  struct Sample {
    std::string device_id;
    core::AttestationRequest request;
    core::ProverReply reply;
  };

  void record(const std::string& device_id,
              const core::AttestationRequest& request,
              const core::ProverReply& reply, double us) {
    std::lock_guard<std::mutex> lock(mutex);
    wall_us += us;
    if (calls++ % 16 == 0 && samples.size() < kProbeSamples) {
      samples.push_back(Sample{device_id, request, reply});
    }
  }

  std::mutex mutex;
  double wall_us = 0.0;
  std::uint64_t calls = 0;
  std::vector<Sample> samples;
};

/// Fleet, cache, optional tracers and a running server.
struct Rig {
  Rig(const Shape& shape, std::uint64_t fleet_seed, bool traced)
      : fleet(shape.fleet, fleet_seed),
        cache(fleet.registry(), fleet.code(), shape.cache) {
    if (traced) {
      client_tracer = std::make_unique<obs::Tracer>();
      server_tracer = std::make_unique<obs::Tracer>();
    }
    net::ServerConfig config;
    config.endpoint = net::Endpoint::tcp("127.0.0.1", 0);
    config.pool.workers = kWorkers;
    config.pool.queue_capacity = kQueueCapacity;
    config.tracer = server_tracer.get();
    config.pool.tracer = server_tracer.get();
    server = std::make_unique<net::AttestationServer>(
        cache,
        [this](const net::JobRequest& request) -> core::Responder {
          auto inner = fleet.responder_for(request.device_id, request.rng_seed);
          if (!inner || !tapping.load(std::memory_order_relaxed)) return inner;
          return [this, inner, id = request.device_id](
                     const core::AttestationRequest& attestation) {
            const auto start = Clock::now();
            auto reply = inner(attestation);
            tap.record(id, attestation, reply,
                       micros_between(start, Clock::now()));
            return reply;
          };
        },
        config);
    runner = std::thread([this] { server->run(); });
  }

  ~Rig() {
    server->stop();
    runner.join();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  void set_tracing(bool on) {
    if (!client_tracer) return;
    client_tracer->set_enabled(on);
    server_tracer->set_enabled(on);
    tapping.store(on, std::memory_order_relaxed);
  }

  net::SimFleet fleet;
  service::EmulatorCache cache;
  std::unique_ptr<obs::Tracer> client_tracer;
  std::unique_ptr<obs::Tracer> server_tracer;
  ProverTap tap;
  std::atomic<bool> tapping{false};
  std::unique_ptr<net::AttestationServer> server;
  std::thread runner;  ///< last: joined before anything it uses goes away
};

net::LoadGenConfig round_config(const Rig& rig, std::uint64_t seed,
                                std::size_t round, std::size_t jobs) {
  net::LoadGenConfig config;
  config.endpoint = rig.server->bound_endpoint();
  config.connections = kConnections;
  config.jobs_per_connection = jobs;
  config.devices = rig.fleet.size();
  config.channel_seed_base = derive_seed(seed, 1000 + round);
  config.rng_seed_base = derive_seed(seed, 2000 + round);
  config.tracer = rig.client_tracer.get();
  return config;
}

struct ParityCase {
  net::LoadGenConfig config;
  std::size_t job = 0;
  net::VerdictReply wire;
};

/// Totals over a series of rounds.
struct Rounds {
  std::vector<double> latency_us;
  FailureTally tally;
  std::uint64_t verdicts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double wall_s = 0.0;
  double server_cpu_us = 0.0;   ///< process CPU minus the load generator's
  double loadgen_cpu_us = 0.0;

  double hit_frac() const {
    const auto lookups = cache_hits + cache_misses;
    return lookups > 0 ? static_cast<double>(cache_hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  }
};

/// One load-generator round on the calling thread, added to `out`.  Every
/// verdict should be an accept; the rare honest false reject joins
/// `parity`, where it must be reproduced exactly by the in-process
/// reference.
net::LoadGenReport run_round(Rig& rig, const net::LoadGenConfig& config,
                             Rounds& out, std::vector<ParityCase>& parity) {
  const auto cache0 = rig.cache.counters();
  const double process0 = process_cpu_us();
  const double thread0 = thread_cpu_us();
  const auto start = Clock::now();
  net::LoadGenerator generator(config);
  auto report = generator.run();
  out.wall_s += seconds_since(start);
  const double loadgen_us = thread_cpu_us() - thread0;
  out.loadgen_cpu_us += loadgen_us;
  out.server_cpu_us += process_cpu_us() - process0 - loadgen_us;
  const auto cache1 = rig.cache.counters();
  out.cache_hits += cache1.hits - cache0.hits;
  out.cache_misses += cache1.misses - cache0.misses;

  for (std::size_t j = 0; j < report.by_job.size(); ++j) {
    const auto& job = report.by_job[j];
    if (!job.completed) continue;
    if (job.reply.outcome == service::JobOutcome::kAccepted &&
        job.reply.status == core::SessionStatus::kAccepted) {
      ++out.accepted;
    } else {
      parity.push_back(ParityCase{config, j, job.reply});
    }
    out.latency_us.push_back(job.latency_us);
  }
  out.tally.add(tally_round(report));
  out.verdicts += report.verdicts;
  out.busy_replies += report.busy_replies;
  out.decode_errors += report.decode_errors;
  out.bytes += report.bytes_in + report.bytes_out;
  return report;
}

/// Timed round number `round` (then advanced), with its parity sample.
void timed_round(Rig& rig, const Shape& shape, std::uint64_t seed,
                 std::size_t& round, Rounds& out,
                 std::vector<ParityCase>& parity) {
  const auto config = round_config(rig, seed, round, shape.round_jobs);
  const auto report = run_round(rig, config, out, parity);
  for (std::size_t k = 0; k < kParityPerRound; ++k) {
    const std::size_t j =
        derive_seed(seed, 3000 + round * 8 + k) % report.by_job.size();
    if (report.by_job[j].completed) {
      parity.push_back(ParityCase{config, j, report.by_job[j].reply});
    }
  }
  ++round;
}

/// Workload-validity checks: each fails the run when the workload stops
/// measuring what it was chosen for.
void check_validity(const Rig& rig, const Shape& shape, const Rounds& r) {
  require(r.tally.failed == 0,
          "wire: " + std::to_string(r.tally.failed) + " of " +
              std::to_string(r.tally.attempted) + " jobs got no verdict");
  const double accept = static_cast<double>(r.accepted) /
                        static_cast<double>(r.verdicts);
  require(accept >= 0.99, "wire: only " + std::to_string(accept) +
                              " of honest verdicts were accepts");
  const double hit = r.hit_frac();
  if (shape.hot) {
    require(hit >= 0.99, "wire_hot: cache hit fraction " +
                             std::to_string(hit) + " fell below 0.99");
  } else {
    require(hit <= 0.05, "wire_sweep: cache hit fraction " +
                             std::to_string(hit) + " rose above 0.05");
  }
  require(r.busy_replies == 0, "wire: " + std::to_string(r.busy_replies) +
                                   " busy replies at the sized load");
  require(r.decode_errors == 0, "wire: " + std::to_string(r.decode_errors) +
                                    " client decode errors");
  const auto server_errors = rig.server->counters().decode_errors;
  require(server_errors == 0, "wire: " + std::to_string(server_errors) +
                                  " server decode errors");
  const double loadgen_busy = r.loadgen_cpu_us / (r.wall_s * 1e6);
  require(loadgen_busy < 0.5, "wire: load-generator thread " +
                                  std::to_string(loadgen_busy) +
                                  " busy, close to saturation");
}

/// Verdicts of `requests` from a fresh in-process VerifierPool over the
/// same fleet, indexed like `requests`.  The cache is sized as served, so
/// this reference never holds more verifiers than the server does.
std::vector<service::JobResult> run_in_process(
    const net::SimFleet& fleet, const Shape& shape,
    const std::vector<net::JobRequest>& requests, std::size_t workers) {
  service::EmulatorCache cache(fleet.registry(), fleet.code(), shape.cache);
  service::PoolConfig config;
  config.workers = workers;
  config.queue_capacity = kQueueCapacity;
  std::mutex mutex;
  std::vector<service::JobResult> results(requests.size());
  service::VerifierPool pool(cache, config,
                             [&](const service::JobResult& result) {
                               std::lock_guard<std::mutex> lock(mutex);
                               results[result.tag] = result;
                             });
  for (std::size_t i = 0; i < requests.size(); ++i) {
    service::AttestationJob job;
    job.device_id = requests[i].device_id;
    job.responder =
        fleet.responder_for(requests[i].device_id, requests[i].rng_seed);
    job.channel_seed = requests[i].channel_seed;
    job.rng_seed = requests[i].rng_seed;
    job.tag = i;
    while (!pool.submit(job).enqueued()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  pool.drain();
  return results;
}

/// Every parity case's wire verdict must equal its in-process twin.
void check_parity(const Rig& rig, const Shape& shape,
                  const std::vector<ParityCase>& cases) {
  std::vector<net::JobRequest> requests;
  for (const auto& c : cases) {
    requests.push_back(net::LoadGenerator::job_for(c.config, c.job));
  }
  const auto results = run_in_process(rig.fleet, shape, requests, kWorkers);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& wire = cases[i].wire;
    const auto& local = results[i];
    require(wire.outcome == local.outcome &&
                wire.status == local.session.status &&
                wire.attempts == local.session.attempts.size() &&
                wire.total_us == local.session.total_us,
            "wire: verdict of job " + std::to_string(cases[i].job) +
                " differs from its in-process VerifierPool twin");
  }
}

/// Picks the fleet seed.  Honest dies drawn from arbitrary seeds are not
/// equally reliable: a few per hundred fail a sizeable share of honest
/// small-profile attestations.  The first candidate fleet whose devices
/// all pass kScreenJobs in-process attestations is served, so a workload
/// never reads a weak die's false rejects as verifier cost.
std::uint64_t screened_fleet_seed(const Shape& shape, std::uint64_t seed) {
  constexpr std::size_t kScreenJobs = 640;
  constexpr std::size_t kCandidates = 16;
  for (std::size_t k = 0; k < kCandidates; ++k) {
    const std::uint64_t candidate = derive_seed(seed, 3 + 100 * k);
    const net::SimFleet fleet(shape.fleet, candidate);
    net::LoadGenConfig config;
    config.devices = fleet.size();
    config.channel_seed_base = derive_seed(candidate, 5);
    config.rng_seed_base = derive_seed(candidate, 6);
    std::vector<net::JobRequest> requests;
    for (std::size_t j = 0; j < kScreenJobs; ++j) {
      requests.push_back(net::LoadGenerator::job_for(config, j));
    }
    bool reliable = true;
    for (const auto& result : run_in_process(fleet, shape, requests, 4)) {
      reliable = reliable && result.outcome == service::JobOutcome::kAccepted;
    }
    if (reliable) {
      std::printf("fleet: candidate %zu passed the %zu-attestation screen\n",
                  k, kScreenJobs);
      return candidate;
    }
  }
  throw CheckFailed{"wire: no candidate fleet passed the honest screen"};
}

/// Setup: enrollment, cache, server bind, connects and a warm-up round.
std::unique_ptr<Rig> setup(const Shape& shape, std::uint64_t fleet_seed,
                           std::uint64_t seed, bool traced) {
  auto rig = std::make_unique<Rig>(shape, fleet_seed, traced);
  Rounds warm;
  std::vector<ParityCase> unchecked;
  run_round(*rig, round_config(*rig, seed, 0, shape.warm_jobs), warm,
            unchecked);
  require(warm.tally.failed == 0, "wire: warm-up lost verdicts");
  if (shape.hot) {
    require(rig->cache.size() == shape.fleet,
            "wire_hot: warm-up left verifiers uncached");
  }
  return rig;
}

/// Span-derived totals.  Each traced round is merged and cleared as soon
/// as it ends, so the tracers' bounded stores never fill.
struct SpanTotals {
  std::size_t client_roots = 0;
  std::size_t joined = 0;
  double client_us = 0.0;  ///< sums over joined verdicts
  double rtt_us = 0.0;
  double queue_us = 0.0;
  std::map<std::string, std::pair<double, std::size_t>> stages;  ///< sum, n

  void absorb(obs::Tracer& server, obs::Tracer& client) {
    require(server.dropped() == 0 && client.dropped() == 0,
            "wire: the traced run dropped spans");
    std::vector<obs::TraceFile> files;
    files.push_back({"server", obs::read_trace(server.to_jsonl())});
    files.push_back({"client", obs::read_trace(client.to_jsonl())});
    server.clear();
    client.clear();
    const auto merged = obs::merge_traces(files);
    client_roots += merged.client_roots;
    joined += merged.joined;
    for (const auto& v : merged.verdicts) {
      if (!v.joined) continue;
      client_us += v.client_us;
      rtt_us += v.wire_rtt_us;
      queue_us += v.queue_us;
    }
    for (const auto& [name, durations] : merged.stage_us) {
      auto& stage = stages[name];
      for (const double d : durations) stage.first += d;
      stage.second += durations.size();
    }
  }

  double per_joined(double total) const {
    return joined > 0 ? total / static_cast<double>(joined) : 0.0;
  }
  double stage_sum(const char* name) const {
    const auto it = stages.find(name);
    return it == stages.end() ? 0.0 : it->second.first;
  }
  double stage_mean(const char* name) const {
    const auto it = stages.find(name);
    return it == stages.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  }
};

}  // namespace

RunResult run_wire(const Options& options) {
  const Shape shape = shape_for(options.workload);
  RunResult out;
  std::vector<double> setup_s;
  const std::uint64_t fleet_seed = screened_fleet_seed(shape, options.seed);
  std::unique_ptr<Rig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    const auto start = Clock::now();
    rig = setup(shape, fleet_seed, options.seed, options.trace);
    setup_s.push_back(seconds_since(start));
  }
  std::printf("%s: %zu devices, cache %zu, %zu connections, %zu workers, "
              "setup %.3f s (median of %s)\n",
              options.workload.c_str(), shape.fleet, shape.cache,
              kConnections, kWorkers, median_of(setup_s),
              list_of(setup_s).c_str());

  std::size_t round = 1;
  std::vector<ParityCase> parity;
  if (!options.trace) {
    Rounds r;
    const auto start = Clock::now();
    do {
      timed_round(*rig, shape, options.seed, round, r, parity);
    } while (seconds_since(start) < options.seconds);
    out.e2e.peak_rss_mb = peak_rss_mb();
    check_validity(*rig, shape, r);
    check_parity(*rig, shape, parity);
    out.tally = r.tally;
    const double n = static_cast<double>(r.verdicts);
    std::sort(r.latency_us.begin(), r.latency_us.end());
    std::printf("%llu verdicts in %zu rounds, cache hit fraction %.4f, "
                "%zu parity cases matched\n",
                static_cast<unsigned long long>(r.verdicts), round - 1,
                r.hit_frac(), parity.size());
    out.e2e.verdicts_per_s = n / r.wall_s;
    out.e2e.latency_mean_us = mean_of(r.latency_us);
    out.e2e.p50 = tail_percentile(r.latency_us, 50);
    out.e2e.p90 = tail_percentile(r.latency_us, 90);
    out.e2e.p99 = tail_percentile(r.latency_us, 99);
    out.e2e.cpu_us_per_verdict = r.server_cpu_us / n;
    out.e2e.setup_s = median_of(setup_s);
    return out;
  }

  // Traced run: rounds alternate between tracers off (the overhead
  // baseline) and on, so both see the same machine; the prover tap runs
  // only while tracing.
  Rounds plain;
  Rounds traced;
  SpanTotals spans;
  const auto start = Clock::now();
  do {
    timed_round(*rig, shape, options.seed, round, plain, parity);
    rig->set_tracing(true);
    timed_round(*rig, shape, options.seed, round, traced, parity);
    rig->set_tracing(false);
    spans.absorb(*rig->server_tracer, *rig->client_tracer);
  } while (seconds_since(start) < options.seconds);
  check_validity(*rig, shape, plain);
  check_validity(*rig, shape, traced);
  check_parity(*rig, shape, parity);
  out.tally = plain.tally;
  out.tally.add(traced.tally);

  require(spans.joined > 0 && static_cast<double>(spans.joined) >=
                                  0.99 * static_cast<double>(spans.client_roots),
          "wire: client and server traces did not join");

  // Verify layers, replayed on sampled (request, reply) pairs.
  LayerTimes times;
  std::map<std::string, std::unique_ptr<LayerProbe>> probes;
  const core::Channel channel(rig->server->pool().config().channel);
  for (const auto& s : rig->tap.samples) {
    auto& probe = probes[s.device_id];
    if (!probe) {
      probe = std::make_unique<LayerProbe>(
          *rig->fleet.registry().load(s.device_id), rig->fleet.code());
    }
    const double elapsed_us =
        s.reply.compute_us +
        channel.round_trip_us(8, s.reply.response.wire_bytes());
    require(probe->verify(s.request, s.reply.response, elapsed_us, times) ==
                core::VerifyStatus::kAccepted,
            "wire: probe rejected a served honest transcript");
  }

  auto& l = out.layers;
  fill_probe_layers(times, l);
  const double verdicts = static_cast<double>(traced.verdicts);
  l.cpu_prover_us = rig->tap.wall_us / verdicts;
  l.cpu_prover_share = rig->tap.wall_us / traced.server_cpu_us;
  l.service_cache_hit_frac = traced.hit_frac();
  l.service_cache_build_us = spans.stage_mean("cache.build");
  l.service_cache_acquire_us = spans.stage_mean("cache.acquire");
  l.service_queue_wait_us = spans.per_joined(spans.queue_us);
  l.service_worker_busy_frac =
      spans.stage_sum("pool.verify") /
      (static_cast<double>(kWorkers) * traced.wall_s * 1e6);
  l.service_queue_depth_hwm = static_cast<double>(
      rig->server->pool().metrics_snapshot().queue_depth_hwm);
  l.net_wire_rtt_us = spans.per_joined(spans.rtt_us);
  l.net_bytes_per_verdict = static_cast<double>(traced.bytes) / verdicts;
  l.net_busy_per_verdict = static_cast<double>(traced.busy_replies) / verdicts;
  l.net_decode_errors = static_cast<double>(
      traced.decode_errors + rig->server->counters().decode_errors);
  l.client_loadgen_cpu_us_per_verdict = traced.loadgen_cpu_us / verdicts;
  const double plain_rate = static_cast<double>(plain.verdicts) / plain.wall_s;
  const double traced_rate = verdicts / traced.wall_s;
  l.trace_overhead_frac = plain_rate / traced_rate - 1.0;
  const double accounted = l.net_wire_rtt_us + l.service_queue_wait_us +
                           l.service_cache_acquire_us + l.cpu_prover_us +
                           l.core_verify_us;
  l.trace_unaccounted_frac = 1.0 - accounted / spans.per_joined(spans.client_us);

  std::vector<std::shared_ptr<const core::EnrollmentRecord>> loaded;
  std::vector<const core::EnrollmentRecord*> records;
  for (std::size_t d = 0; d < std::min<std::size_t>(shape.fleet, 16); ++d) {
    loaded.push_back(rig->fleet.registry().load(net::SimFleet::device_id(d)));
    records.push_back(loaded.back().get());
  }
  measure_verifier_build(records, rig->fleet.code(), 16, l);
  std::printf("traced: %zu of %zu client roots joined, %zu probe samples\n",
              spans.joined, spans.client_roots, rig->tap.samples.size());
  return out;
}

}  // namespace perfbench

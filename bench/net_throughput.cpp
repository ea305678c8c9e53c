// Network attestation front end: goodput, backpressure and connection
// scale over real sockets.
//
// Four experiments against one enrolled SimFleet, all driving the
// AttestationServer through TCP loopback with the frame protocol:
//
//   1. connection sweep — fixed worker count, rising concurrent
//      connections over a fixed job budget; goodput must rise to a
//      plateau (the verify pool is the bottleneck, and the bounded queue
//      plus busy-shedding must keep it there instead of collapsing).
//   2. worker sweep — fixed connection count, rising verify workers.
//   3. overload cell — a deliberately tiny pool (1 worker, queue 1) under
//      many connections: measures the wire-level shed rate (busy replies /
//      replies), and requires that clients obeying the retry-after hints
//      still drive *every* job to a verdict.
//   4. connection-scale cell (full mode) — >= 10k concurrent connections.
//      The load generator runs in a forked child process so each side of
//      the socket gets its own fd budget (exactly the two-process shape of
//      a real deployment), shipping per-job verdicts back over a pipe.
//   5. tracing overhead A/B — the same cell with no tracer vs with a
//      tracer attached but disabled (hooks compiled in, sampler off: the
//      always-on production configuration).  Best-of-N goodput each way;
//      the full-mode claim gate is <= 2% goodput cost.
//   6. stats-under-load cell — a concurrent poller hammers the
//      StatsRequest admin frame for the whole cell (the load starts once
//      its first reply is in, so even a short cell sees stats served); the
//      claim is zero verdict divergence with stats actually served.
//
// Verdict parity is the correctness spine: every cell's jobs are the same
// derivation (LoadGenerator::job_for — device j%devices, seeds affine in
// j), so one in-process VerifierPool baseline over the longest job list
// provides ground truth for all of them, and any wire verdict differing
// from its in-process twin (outcome, status, attempt count, or bit-exact
// simulated time) counts as divergence.  The acceptance claim is zero.
//
// Results go to stdout and BENCH_net_throughput.json (stable schema; bump
// schema_version on any field change).  `--smoke` runs a tiny sweep with a
// 3-device fleet as the ctest smoke labeled 'bench'.
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fleet.hpp"
#include "net/frame.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "support/table.hpp"

using namespace pufatt;

namespace {

// --- in-process ground truth ------------------------------------------------

struct BaselineVerdict {
  service::JobOutcome outcome = service::JobOutcome::kUnknownDevice;
  core::SessionStatus status = core::SessionStatus::kTimeout;
  std::uint32_t attempts = 0;
  double total_us = 0.0;
};

std::vector<BaselineVerdict> run_baseline(const net::SimFleet& fleet,
                                          service::EmulatorCache& cache,
                                          std::size_t jobs, double* wall_s) {
  net::LoadGenConfig derivation;
  derivation.devices = fleet.size();

  service::PoolConfig config;
  config.workers = 4;
  config.queue_capacity = 256;

  std::mutex mutex;
  std::vector<BaselineVerdict> verdicts(jobs);
  service::VerifierPool pool(
      cache, config, [&](const service::JobResult& result) {
        std::lock_guard<std::mutex> lock(mutex);
        auto& v = verdicts[result.tag];
        v.outcome = result.outcome;
        v.status = result.session.status;
        v.attempts = static_cast<std::uint32_t>(result.session.attempts.size());
        v.total_us = result.session.total_us;
      });

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < jobs; ++j) {
    const auto request = net::LoadGenerator::job_for(derivation, j);
    service::AttestationJob job;
    job.device_id = request.device_id;
    job.responder = fleet.responder_for(request.device_id, request.rng_seed);
    job.channel_seed = request.channel_seed;
    job.rng_seed = request.rng_seed;
    job.tag = j;
    // Closed loop: every job must run, backpressure just paces us.
    while (!pool.submit(job).enqueued()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  pool.drain();
  *wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
  return verdicts;
}

std::size_t count_divergence(const net::LoadGenReport& report,
                             const std::vector<BaselineVerdict>& baseline) {
  std::size_t divergence = 0;
  for (std::size_t j = 0; j < report.by_job.size(); ++j) {
    const auto& wire = report.by_job[j];
    if (!wire.completed) {
      ++divergence;  // a lost verdict is the worst divergence
      continue;
    }
    const auto& truth = baseline[j];
    if (wire.reply.outcome != truth.outcome ||
        wire.reply.status != truth.status ||
        wire.reply.attempts != truth.attempts ||
        wire.reply.total_us != truth.total_us) {
      ++divergence;
    }
  }
  return divergence;
}

// --- one server + loadgen cell ----------------------------------------------

struct Cell {
  std::size_t connections = 0;
  std::size_t workers = 0;
  std::size_t queue = 0;
  std::size_t jobs = 0;
  net::LoadGenReport report;
  net::NetCounters server_counters;
  std::size_t divergence = 0;
  std::size_t stats_polls = 0;  ///< stats round trips during the cell

  double shed_rate() const {
    const double replies = static_cast<double>(report.verdicts) +
                           static_cast<double>(report.busy_replies);
    return replies > 0.0
               ? static_cast<double>(report.busy_replies) / replies
               : 0.0;
  }
};

/// Per-job verdict as shipped over the fork pipe (same-arch, same-process
/// image: raw struct bytes are fine).
struct PipedJob {
  std::uint8_t completed = 0;
  std::uint32_t outcome = 0;
  std::uint32_t status = 0;
  std::uint32_t attempts = 0;
  double total_us = 0.0;
  std::uint32_t busy_retries = 0;
};

struct PipedHeader {
  std::uint64_t jobs = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t inconclusive = 0;
  std::uint64_t unknown_device = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t decode_errors = 0;
  double wall_s = 0.0;
};

bool write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Runs the load generator in a forked child (own fd budget, own event
/// loop) and reassembles its report in the parent.  Returns false if the
/// child died or the pipe was cut short.
bool run_loadgen_forked(const net::LoadGenConfig& config,
                        net::LoadGenReport& out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: drive the fleet, ship the report, vanish.  _exit skips the
    // parent's static destructors (server threads etc. are not ours).
    ::close(fds[0]);
    net::LoadGenerator generator(config);
    const auto report = generator.run();
    PipedHeader header;
    header.jobs = report.jobs;
    header.verdicts = report.verdicts;
    header.accepted = report.accepted;
    header.rejected = report.rejected;
    header.inconclusive = report.inconclusive;
    header.unknown_device = report.unknown_device;
    header.busy_replies = report.busy_replies;
    header.retries_exhausted = report.retries_exhausted;
    header.error_replies = report.error_replies;
    header.connect_failures = report.connect_failures;
    header.disconnects = report.disconnects;
    header.decode_errors = report.decode_errors;
    header.wall_s = report.wall_s;
    bool ok = write_all(fds[1], &header, sizeof(header));
    for (std::size_t j = 0; ok && j < report.by_job.size(); ++j) {
      const auto& v = report.by_job[j];
      PipedJob piped;
      piped.completed = v.completed ? 1 : 0;
      piped.outcome = static_cast<std::uint32_t>(v.reply.outcome);
      piped.status = static_cast<std::uint32_t>(v.reply.status);
      piped.attempts = v.reply.attempts;
      piped.total_us = v.reply.total_us;
      piped.busy_retries = v.busy_retries;
      ok = write_all(fds[1], &piped, sizeof(piped));
    }
    ::close(fds[1]);
    ::_exit(ok ? 0 : 1);
  }

  ::close(fds[1]);
  PipedHeader header;
  bool ok = read_all(fds[0], &header, sizeof(header));
  if (ok) {
    out = net::LoadGenReport{};
    out.jobs = header.jobs;
    out.verdicts = header.verdicts;
    out.accepted = header.accepted;
    out.rejected = header.rejected;
    out.inconclusive = header.inconclusive;
    out.unknown_device = header.unknown_device;
    out.busy_replies = header.busy_replies;
    out.retries_exhausted = header.retries_exhausted;
    out.error_replies = header.error_replies;
    out.connect_failures = header.connect_failures;
    out.disconnects = header.disconnects;
    out.decode_errors = header.decode_errors;
    out.wall_s = header.wall_s;
    out.by_job.resize(header.jobs);
    for (std::size_t j = 0; ok && j < out.by_job.size(); ++j) {
      PipedJob piped;
      ok = read_all(fds[0], &piped, sizeof(piped));
      if (!ok) break;
      auto& v = out.by_job[j];
      v.completed = piped.completed != 0;
      v.reply.outcome = static_cast<service::JobOutcome>(piped.outcome);
      v.reply.status = static_cast<core::SessionStatus>(piped.status);
      v.reply.attempts = piped.attempts;
      v.reply.total_us = piped.total_us;
      v.busy_retries = piped.busy_retries;
    }
  }
  ::close(fds[0]);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return ok && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
}

/// Hammers the stats admin frame over one dedicated connection until
/// stopped; counts successful round trips, and counts `first_reply` down
/// after the first.
void poll_stats_until(const net::Endpoint& endpoint,
                      const std::atomic<bool>& stop, std::size_t* served,
                      std::latch& first_reply) {
  try {
    net::Fd fd = net::connect_to(endpoint);
    net::FrameDecoder decoder;
    std::vector<net::FrameDecoder::Frame> frames;
    std::uint64_t tag = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto request = net::encode_stats_request(net::StatsRequest{tag});
      std::size_t sent = 0;
      while (sent < request.size()) {
        const ssize_t n = ::send(fd.get(), request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
          sent += static_cast<std::size_t>(n);
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          return;
        }
      }
      bool got_reply = false;
      while (!got_reply) {
        std::uint8_t buf[8192];
        const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
        if (n > 0) {
          if (!decoder.feed(buf, static_cast<std::size_t>(n), frames)) return;
          for (const auto& frame : frames) {
            if (frame.type == net::MsgType::kStatsReply) got_reply = true;
          }
          frames.clear();
        } else if (n == 0) {
          return;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (stop.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        } else if (errno != EINTR) {
          return;
        }
      }
      ++tag;
      if (++*served == 1) first_reply.count_down();
    }
  } catch (const net::NetError&) {
  }
}

Cell run_cell(const net::SimFleet& fleet, service::EmulatorCache& cache,
              std::size_t workers, std::size_t queue,
              std::size_t connections, std::size_t jobs_per_connection,
              const std::vector<BaselineVerdict>& baseline, bool forked,
              double idle_timeout_ms = 0.0, obs::Tracer* tracer = nullptr,
              bool stats_poll = false) {
  Cell cell;
  cell.connections = connections;
  cell.workers = workers;
  cell.queue = queue;
  cell.jobs = connections * jobs_per_connection;

  net::ServerConfig server_config;
  server_config.endpoint = net::Endpoint::tcp("127.0.0.1", 0);
  server_config.pool.workers = workers;
  server_config.pool.queue_capacity = queue;
  if (idle_timeout_ms > 0.0) server_config.idle_timeout_ms = idle_timeout_ms;
  // The tracing-overhead A/B attaches a *disabled* tracer here: every hook
  // runs its enabled() check (the production always-on cost), records
  // nothing.
  server_config.tracer = tracer;
  server_config.pool.tracer = tracer;
  net::AttestationServer server(
      cache,
      [&fleet](const net::JobRequest& request) {
        return fleet.responder_for(request.device_id, request.rng_seed);
      },
      server_config);
  std::thread runner([&server] { server.run(); });

  // The load waits for the poller's first stats reply: a cell of a few
  // cheap jobs can otherwise finish before the poller has connected.
  std::atomic<bool> poll_stop{false};
  std::latch first_poll(stats_poll ? 1 : 0);
  std::thread poller;
  if (stats_poll) {
    poller = std::thread([&server, &poll_stop, &cell, &first_poll] {
      poll_stats_until(server.bound_endpoint(), poll_stop,
                       &cell.stats_polls, first_poll);
      // A poller that gave up before any reply must not hold the load.
      if (cell.stats_polls == 0) first_poll.count_down();
    });
  }
  first_poll.wait();

  net::LoadGenConfig config;
  config.endpoint = server.bound_endpoint();
  config.connections = connections;
  config.jobs_per_connection = jobs_per_connection;
  config.devices = fleet.size();
  config.max_busy_retries = 100000;  // obey hints for as long as it takes
  config.max_retry_wait_ms = 50.0;

  if (forked) {
    if (!run_loadgen_forked(config, cell.report)) {
      std::fprintf(stderr, "forked loadgen failed\n");
    }
  } else {
    net::LoadGenerator generator(config);
    cell.report = generator.run();
  }

  if (stats_poll) {
    poll_stop.store(true);
    poller.join();
  }
  server.stop();
  runner.join();
  cell.server_counters = server.counters();
  cell.divergence = count_divergence(cell.report, baseline);
  return cell;
}

// --- reporting --------------------------------------------------------------

void print_cells(const char* title, const std::vector<Cell>& cells) {
  std::printf("%s\n", title);
  support::Table table({"conns", "workers", "jobs", "wall s", "goodput/s",
                        "busy", "shed rate", "divergence"});
  for (const auto& c : cells) {
    table.add_row({std::to_string(c.connections), std::to_string(c.workers),
                   std::to_string(c.jobs),
                   support::Table::num(c.report.wall_s, 2),
                   support::Table::num(c.report.goodput_per_s(), 1),
                   std::to_string(c.report.busy_replies),
                   support::Table::num(c.shed_rate(), 3),
                   std::to_string(c.divergence)});
  }
  std::printf("%s\n", table.render().c_str());
}

void json_cell(FILE* f, const Cell& c, const char* trailer) {
  std::fprintf(
      f,
      "    {\"connections\": %zu, \"workers\": %zu, \"queue\": %zu, "
      "\"jobs\": %zu, \"wall_s\": %.4f, \"goodput_per_s\": %.2f, "
      "\"verdicts\": %llu, \"busy_replies\": %llu, \"shed_rate\": %.4f, "
      "\"retries_exhausted\": %llu, \"connect_failures\": %llu, "
      "\"disconnects\": %llu, \"idle_evicted\": %llu, "
      "\"writeq_shed\": %llu, \"verdict_divergence\": %zu}%s\n",
      c.connections, c.workers, c.queue, c.jobs, c.report.wall_s,
      c.report.goodput_per_s(),
      static_cast<unsigned long long>(c.report.verdicts),
      static_cast<unsigned long long>(c.report.busy_replies), c.shed_rate(),
      static_cast<unsigned long long>(c.report.retries_exhausted),
      static_cast<unsigned long long>(c.report.connect_failures),
      static_cast<unsigned long long>(c.report.disconnects),
      static_cast<unsigned long long>(c.server_counters.idle_evicted),
      static_cast<unsigned long long>(c.server_counters.writeq_shed),
      c.divergence, trailer);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("=== Network attestation front end: goodput & connection scale "
              "(%s) ===\n\n",
              smoke ? "smoke" : "full");

  const std::size_t devices = smoke ? 3 : 8;
  const std::size_t scale_connections = 10000;
  std::printf("enrolling %zu simulated devices...\n", devices);
  const net::SimFleet fleet(devices);
  service::EmulatorCache cache(fleet.registry(), fleet.code(), fleet.size());

  // One ground-truth run covers every cell: all cells execute a prefix of
  // the same job list.
  const std::size_t grid_jobs = smoke ? 16 : 512;
  const std::size_t max_jobs = smoke ? grid_jobs
                                     : std::max(grid_jobs, scale_connections);
  double baseline_wall_s = 0.0;
  const auto baseline =
      run_baseline(fleet, cache, max_jobs, &baseline_wall_s);
  std::printf("in-process baseline: %zu jobs in %.2f s (%.1f verdicts/s)\n\n",
              max_jobs, baseline_wall_s,
              static_cast<double>(max_jobs) / baseline_wall_s);

  // --- connection sweep -----------------------------------------------------
  const std::size_t sweep_workers = smoke ? 2 : 4;
  const std::vector<std::size_t> conn_counts =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 4, 16, 64, 256};
  // A production-shaped queue (not 2*workers): the sweep's question is how
  // goodput behaves as concurrency rises, so the queue is a constant and
  // only `connections` moves.  Queue-starved shedding is the worker sweep's
  // and the overload cell's job.
  const std::size_t sweep_queue = 64;
  std::vector<Cell> conn_cells;
  for (const std::size_t conns : conn_counts) {
    conn_cells.push_back(run_cell(fleet, cache, sweep_workers, sweep_queue,
                                  conns,
                                  std::max<std::size_t>(1, grid_jobs / conns),
                                  baseline, /*forked=*/false));
  }
  print_cells("connection sweep (fixed workers):", conn_cells);

  // --- worker sweep ---------------------------------------------------------
  const std::size_t sweep_conns = smoke ? 4 : 64;
  const std::vector<std::size_t> worker_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  std::vector<Cell> worker_cells;
  for (const std::size_t workers : worker_counts) {
    worker_cells.push_back(
        run_cell(fleet, cache, workers, 2 * workers, sweep_conns,
                 std::max<std::size_t>(1, grid_jobs / sweep_conns), baseline,
                 /*forked=*/false));
  }
  print_cells("worker sweep (fixed connections):", worker_cells);

  // --- overload: tiny pool, many clients ------------------------------------
  const std::size_t overload_conns = smoke ? 8 : 32;
  const auto overload =
      run_cell(fleet, cache, 1, 1, overload_conns,
               std::max<std::size_t>(2, grid_jobs / overload_conns / 2),
               baseline, /*forked=*/false);
  print_cells("overload (1 worker, queue 1):", {overload});

  // --- connection scale (full mode): forked loadgen, >= 10k conns -----------
  std::vector<Cell> scale_cells;
  if (!smoke) {
    std::printf("connection scale: %zu concurrent connections, loadgen "
                "forked into its own process...\n",
                scale_connections);
    std::fflush(stdout);
    // Idle timeout raised well above the connect-storm duration: with 10k
    // clients funneling through one accept queue, a straggler's SYN
    // retransmit can legally stall it for tens of seconds.
    scale_cells.push_back(run_cell(fleet, cache, 4, 512, scale_connections,
                                   1, baseline, /*forked=*/true,
                                   /*idle_timeout_ms=*/120'000.0));
    print_cells("connection scale:", scale_cells);
  }

  // --- tracing overhead A/B: no tracer vs disabled tracer -------------------
  // Hooks are compiled in either way (PUFATT_TRACE governs that at build
  // time); the question here is what the always-on production config — a
  // tracer attached, sampler off — costs over no tracer at all.  Best of
  // N runs each way to push scheduling noise below the 2% gate.
  const std::size_t ab_rounds = smoke ? 1 : 3;
  const std::size_t ab_conns = smoke ? 4 : 16;
  const std::size_t ab_jobs_per_conn =
      std::max<std::size_t>(1, grid_jobs / ab_conns);
  obs::Tracer disabled_tracer;  // never enabled
  Cell trace_off_cell, trace_disabled_cell;
  double best_plain = 0.0, best_disabled = 0.0;
  for (std::size_t round = 0; round < ab_rounds; ++round) {
    auto plain = run_cell(fleet, cache, sweep_workers, sweep_queue, ab_conns,
                          ab_jobs_per_conn, baseline, /*forked=*/false);
    auto disabled = run_cell(fleet, cache, sweep_workers, sweep_queue,
                             ab_conns, ab_jobs_per_conn, baseline,
                             /*forked=*/false, /*idle_timeout_ms=*/0.0,
                             &disabled_tracer);
    if (plain.report.goodput_per_s() > best_plain) {
      best_plain = plain.report.goodput_per_s();
      trace_off_cell = plain;
    }
    if (disabled.report.goodput_per_s() > best_disabled) {
      best_disabled = disabled.report.goodput_per_s();
      trace_disabled_cell = disabled;
    }
  }
  const double trace_overhead =
      best_plain > 0.0 ? std::max(0.0, 1.0 - best_disabled / best_plain) : 0.0;
  print_cells("tracing overhead A/B (no tracer, then disabled tracer):",
              {trace_off_cell, trace_disabled_cell});
  std::printf("tracing disabled overhead: %.2f%% goodput "
              "(%.1f/s -> %.1f/s, best of %zu)\n\n",
              100.0 * trace_overhead, best_plain, best_disabled, ab_rounds);

  // --- stats frames served mid-load ------------------------------------------
  const auto stats_cell =
      run_cell(fleet, cache, sweep_workers, sweep_queue, ab_conns,
               ab_jobs_per_conn, baseline, /*forked=*/false,
               /*idle_timeout_ms=*/0.0, /*tracer=*/nullptr,
               /*stats_poll=*/true);
  print_cells("stats polled concurrently with load:", {stats_cell});
  std::printf("stats served mid-load: %zu round trips "
              "(server counted %llu)\n\n",
              stats_cell.stats_polls,
              static_cast<unsigned long long>(
                  stats_cell.server_counters.stats_served));

  // --- claims ---------------------------------------------------------------
  std::size_t total_divergence = 0;
  std::uint64_t total_verdicts = 0;
  std::size_t total_jobs = 0;
  double best_goodput = 0.0;
  for (const auto* cells : {&conn_cells, &worker_cells, &scale_cells}) {
    for (const auto& c : *cells) {
      total_divergence += c.divergence;
      total_verdicts += c.report.verdicts;
      total_jobs += c.jobs;
      best_goodput = std::max(best_goodput, c.report.goodput_per_s());
    }
  }
  const Cell* extra_cells[] = {&overload, &trace_off_cell,
                               &trace_disabled_cell, &stats_cell};
  for (const Cell* extra : extra_cells) {
    total_divergence += extra->divergence;
    total_verdicts += extra->report.verdicts;
    total_jobs += extra->jobs;
  }

  const bool parity_ok = total_divergence == 0;
  const bool complete_ok = total_verdicts == total_jobs;
  // Plateau, not collapse: peak concurrency must hold most of the best
  // goodput the sweep found (the pool is the intended bottleneck).
  const double top_goodput = conn_cells.back().report.goodput_per_s();
  const double sweep_best =
      std::max_element(conn_cells.begin(), conn_cells.end(),
                       [](const Cell& a, const Cell& b) {
                         return a.report.goodput_per_s() <
                                b.report.goodput_per_s();
                       })
          ->report.goodput_per_s();
  const bool plateau_ok = top_goodput >= (smoke ? 0.2 : 0.5) * sweep_best;
  const bool overload_ok = overload.report.busy_replies > 0 &&
                           overload.report.verdicts == overload.jobs &&
                           overload.report.retries_exhausted == 0;
  const bool scale_ok =
      smoke || (!scale_cells.empty() &&
                scale_cells.front().connections >= 10000 &&
                scale_cells.front().report.verdicts ==
                    scale_cells.front().jobs &&
                scale_cells.front().report.connect_failures == 0 &&
                scale_cells.front().divergence == 0);
  // Smoke cells are too short to resolve 2%; report there, gate in full.
  const bool trace_overhead_ok = smoke || trace_overhead <= 0.02;
  const bool stats_ok = stats_cell.divergence == 0 &&
                        stats_cell.report.verdicts == stats_cell.jobs &&
                        stats_cell.stats_polls > 0 &&
                        stats_cell.server_counters.stats_served >=
                            stats_cell.stats_polls;

  FILE* f = std::fopen("BENCH_net_throughput.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"schema_version\": 2,\n");
    std::fprintf(f, "  \"bench\": \"net_throughput\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f,
                 "  \"workload\": {\"devices\": %zu, \"grid_jobs\": %zu, "
                 "\"transport\": \"tcp-loopback\"},\n",
                 devices, grid_jobs);
    std::fprintf(f, "  \"baseline\": {\"jobs\": %zu, \"wall_s\": %.4f},\n",
                 max_jobs, baseline_wall_s);
    std::fprintf(f, "  \"connection_sweep\": [\n");
    for (std::size_t i = 0; i < conn_cells.size(); ++i) {
      json_cell(f, conn_cells[i], i + 1 < conn_cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"worker_sweep\": [\n");
    for (std::size_t i = 0; i < worker_cells.size(); ++i) {
      json_cell(f, worker_cells[i], i + 1 < worker_cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"overload\": [\n");
    json_cell(f, overload, "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"connection_scale\": [\n");
    for (std::size_t i = 0; i < scale_cells.size(); ++i) {
      json_cell(f, scale_cells[i], i + 1 < scale_cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"tracing_overhead\": {\"rounds\": %zu, "
                 "\"goodput_no_tracer\": %.2f, "
                 "\"goodput_disabled_tracer\": %.2f, \"overhead\": %.4f},\n",
                 ab_rounds, best_plain, best_disabled, trace_overhead);
    std::fprintf(f, "  \"stats_under_load\": [\n");
    json_cell(f, stats_cell, "");
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"stats_polls\": {\"round_trips\": %zu, \"served\": %llu},\n",
                 stats_cell.stats_polls,
                 static_cast<unsigned long long>(
                     stats_cell.server_counters.stats_served));
    std::fprintf(
        f,
        "  \"claims\": {\"parity_ok\": %s, \"complete_ok\": %s, "
        "\"plateau_ok\": %s, \"overload_ok\": %s, \"scale_ok\": %s, "
        "\"trace_overhead_ok\": %s, \"stats_ok\": %s}\n",
        parity_ok ? "true" : "false", complete_ok ? "true" : "false",
        plateau_ok ? "true" : "false", overload_ok ? "true" : "false",
        scale_ok ? "true" : "false", trace_overhead_ok ? "true" : "false",
        stats_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_net_throughput.json\n");
  }

  std::printf("\nclaims:\n");
  std::printf("  [%s] verdict parity: %zu wire jobs, %zu divergences vs "
              "in-process baseline\n",
              parity_ok ? "ok" : "FAIL", total_jobs, total_divergence);
  std::printf("  [%s] completeness: %llu/%zu jobs reached a verdict\n",
              complete_ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(total_verdicts), total_jobs);
  std::printf("  [%s] goodput plateau: %.1f/s at %zu conns vs %.1f/s best\n",
              plateau_ok ? "ok" : "FAIL", top_goodput,
              conn_cells.back().connections, sweep_best);
  std::printf("  [%s] overload sheds via busy+hint: %llu busy replies, "
              "shed rate %.3f, all %zu jobs still served\n",
              overload_ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(overload.report.busy_replies),
              overload.shed_rate(), overload.jobs);
  if (!smoke) {
    std::printf("  [%s] connection scale: %zu concurrent connections, "
                "%llu/%zu verdicts, %llu connect failures\n",
                scale_ok ? "ok" : "FAIL", scale_cells.front().connections,
                static_cast<unsigned long long>(
                    scale_cells.front().report.verdicts),
                scale_cells.front().jobs,
                static_cast<unsigned long long>(
                    scale_cells.front().report.connect_failures));
  }
  std::printf("  [%s] tracing disabled costs <= 2%% goodput: %.2f%%%s\n",
              trace_overhead_ok ? "ok" : "FAIL", 100.0 * trace_overhead,
              smoke ? " (reported only in smoke)" : "");
  std::printf("  [%s] stats served mid-load with zero divergence: "
              "%zu polls, %zu divergences\n",
              stats_ok ? "ok" : "FAIL", stats_cell.stats_polls,
              stats_cell.divergence);
  return parity_ok && complete_ok && plateau_ok && overload_ok && scale_ok &&
                 trace_overhead_ok && stats_ok
             ? 0
             : 1;
}

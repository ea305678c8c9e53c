// Fleet-scale load generator: N concurrent simulated devices driving the
// attestation server through real sockets.
//
// One event-loop thread multiplexes every connection (the same loop the
// server uses, so "tens of thousands of concurrent clients" costs fds,
// not threads).  Each connection works through a fixed slice of the
// global job list sequentially — send JobRequest, await the reply, move
// on — which models a fleet of devices each attesting in its own session
// while the *aggregate* keeps `connections` requests in flight.
//
// Backpressure: a BusyReply is obeyed, not retried hot — the connection
// re-sends after the server's retry-after hint (clamped by
// `max_retry_wait_ms` so a bench run cannot stall on one pessimistic
// hint), up to `max_busy_retries` attempts per job.  Each wait is
// jittered (see kRetryJitter in loadgen.cpp) so a fleet shed in one burst
// does not come back in one synchronized wave.
//
// Determinism and parity: job j's device, tag and seeds are pure
// functions of j (see job_for), identical to what an in-process
// VerifierPool baseline would submit.  The report keeps every verdict
// indexed by job, so callers can diff wire verdicts against in-process
// verdicts tag by tag — the "the network added nothing and lost nothing"
// check bench/net_throughput gates on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace pufatt::net {

struct LoadGenConfig {
  Endpoint endpoint;
  std::size_t connections = 16;
  std::size_t jobs_per_connection = 4;
  /// Distinct device ids cycled over the job list (SimFleet::device_id).
  std::size_t devices = 8;
  std::uint64_t channel_seed_base = 0xC0FFEE;
  std::uint64_t rng_seed_base = 0x5EED;
  std::size_t max_busy_retries = 64;
  double max_retry_wait_ms = 50.0;  ///< clamp on server retry-after hints
  /// Optional span tracer (must outlive the generator; null = untraced
  /// requests, byte-identical to the pre-trace wire format).  Each
  /// sampled job yields a "client.job" root covering first-send→verdict
  /// with a "client.wire" child per attempt, and stamps its root span id
  /// into the request's trace context so the server's spans join the
  /// trace (DESIGN.md §16).
  obs::Tracer* tracer = nullptr;
};

/// Terminal state of one job.
struct JobVerdict {
  bool completed = false;  ///< a VerdictReply arrived for this job
  VerdictReply reply;
  std::uint32_t busy_retries = 0;
  double latency_us = 0.0;  ///< host time, first send to verdict
};

struct LoadGenReport {
  std::size_t jobs = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t inconclusive = 0;
  std::uint64_t unknown_device = 0;
  std::uint64_t busy_replies = 0;      ///< individual BusyReply frames seen
  std::uint64_t retries_exhausted = 0; ///< jobs abandoned to busy-shedding
  std::uint64_t error_replies = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;       ///< connections lost mid-run
  std::uint64_t decode_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double wall_s = 0.0;
  std::vector<JobVerdict> by_job;      ///< size == jobs, indexed by job id

  /// Completed verdicts per wall second — the bench's goodput number.
  double goodput_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(verdicts) / wall_s : 0.0;
  }
};

class LoadGenerator {
 public:
  explicit LoadGenerator(const LoadGenConfig& config);

  /// Opens every connection, drives every job to a terminal state (verdict
  /// or abandonment), closes, and reports.  Blocking; call from its own
  /// thread when the server shares the process.
  LoadGenReport run();

  /// Job j's wire request — the single source of truth the in-process
  /// parity baseline reuses: device j%devices, tag j, seeds affine in j.
  static JobRequest job_for(const LoadGenConfig& config, std::size_t job);

 private:
  struct Conn;

  void open_connection(std::size_t index);
  void on_io(const std::shared_ptr<Conn>& conn, std::uint32_t events);
  void on_reply(const std::shared_ptr<Conn>& conn,
                const FrameDecoder::Frame& frame);
  void send_current_job(const std::shared_ptr<Conn>& conn);
  void advance(const std::shared_ptr<Conn>& conn);
  void fail_remaining(const std::shared_ptr<Conn>& conn);
  void close_conn(const std::shared_ptr<Conn>& conn);
  void flush_writes(const std::shared_ptr<Conn>& conn);
  void check_retry_queue();
  void maybe_finish();

  LoadGenConfig config_;
  EventLoop loop_;
  LoadGenReport report_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::multimap<std::uint64_t, std::shared_ptr<Conn>> retry_at_;  ///< due ns
  std::size_t live_conns_ = 0;
  std::uint64_t jitter_state_ = 0x1D1E57A7Eull;  ///< retry-jitter stream
};

}  // namespace pufatt::net

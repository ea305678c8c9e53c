// Fixed worker pool draining a bounded MPMC queue of attestation jobs.
//
// The serving model: any number of producer threads submit() jobs; a
// fixed set of worker threads drain them, each job running one full
// retrying AttestationSession (core/session) against the cached verifier
// for its device.  The queue is *bounded*: when it is full the pool does
// not grow, block, or drop silently — submit() returns kRejectedBusy with
// a retry-after hint derived from the observed service rate, which is the
// explicit backpressure signal a fleet front-end needs to shed load
// upstream instead of melting down.  (An unreliable radio already forces
// every client to handle retry; busy-shedding reuses the same path.)
//
// Determinism: a job's verdict is a pure function of (enrollment record,
// responder behaviour, channel_seed, rng_seed).  Workers race only over
// *which thread* runs a job, never over the job's random streams — each
// session gets a private RNG seeded from the job — so a pooled run is
// verdict-identical to running the same jobs serially in any order.
// bench/service_throughput checks exactly this parity.
//
// Jobs share nothing mutable but the queue: same-device jobs run side by
// side on the one cached verifier (verify() is safe to run concurrently),
// and their responders may share one read-only simulated PufDevice.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/faulty_channel.hpp"
#include "core/session.hpp"
#include "obs/trace.hpp"
#include "service/emulator_cache.hpp"
#include "service/metrics.hpp"

namespace pufatt::service {

struct PoolConfig {
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  core::SessionPolicy session;         ///< retry policy for every session
  core::ChannelParams channel;         ///< link model for every session
  /// Optional span tracer (must outlive the pool).  Each sampled job
  /// yields a "pool.job" root covering enqueue→completion, with
  /// "pool.queue_wait" and "pool.verify" children; the cache and the
  /// session hang their spans under pool.verify.  Null = no tracing.
  obs::Tracer* tracer = nullptr;
};

/// One attestation request against a registered device.
struct AttestationJob {
  std::string device_id;
  core::Responder responder;      ///< must be callable from a worker thread
  core::FaultParams faults;       ///< fault process of this job's link
  std::uint64_t channel_seed = 0; ///< seeds the link's fault schedule
  std::uint64_t rng_seed = 0;     ///< seeds nonces + backoff jitter
  std::uint64_t tag = 0;          ///< caller correlation id, echoed in the result
  /// Distributed-tracing context adopted from the wire (0 = untraced).
  /// A non-zero wire_trace_id forces the job to be recorded — the client
  /// already made the sampling decision — and the "pool.job" root gets
  /// "trace"/"parent_span" notes so a cross-process merge can join the
  /// server's spans into the client's trace.
  std::uint64_t wire_trace_id = 0;
  std::uint64_t wire_parent_span = 0;
};

struct JobResult {
  std::string device_id;
  std::uint64_t tag = 0;
  JobOutcome outcome = JobOutcome::kUnknownDevice;
  core::SessionOutcome session;  ///< empty when the device was unknown
  /// Echo of AttestationJob::wire_trace_id, plus the span id of this
  /// job's "pool.job" root (0 when the job was not recorded).  The server
  /// sends trace_span back to the client as the reply's span id — the
  /// join key of the cross-process merge.
  std::uint64_t wire_trace_id = 0;
  std::uint64_t trace_span = 0;
};

enum class SubmitStatus {
  kEnqueued,
  kRejectedBusy,   ///< queue full: shed load, come back in retry_after_us
  kShuttingDown,   ///< drain/shutdown began; no new work is accepted
};

const char* to_string(SubmitStatus status);

struct SubmitResult {
  SubmitStatus status = SubmitStatus::kEnqueued;
  /// When kRejectedBusy: suggested client backoff (host-clock us), sized
  /// so that the queue has likely drained by then at the observed rate.
  double retry_after_us = 0.0;

  bool enqueued() const { return status == SubmitStatus::kEnqueued; }
};

class VerifierPool {
 public:
  /// Results are delivered through `on_complete`, invoked on the worker
  /// thread that ran the job; it must be thread-safe.  `cache` must
  /// outlive the pool.
  using CompletionFn = std::function<void(const JobResult&)>;

  VerifierPool(EmulatorCache& cache, const PoolConfig& config,
               CompletionFn on_complete = {});
  ~VerifierPool();  ///< drains, then joins (graceful by default)

  VerifierPool(const VerifierPool&) = delete;
  VerifierPool& operator=(const VerifierPool&) = delete;

  /// Never blocks: enqueues, or reports backpressure/shutdown.
  SubmitResult submit(AttestationJob job);

  /// Stops accepting new jobs and blocks until the queue is empty and all
  /// in-flight sessions finished.  Workers stay alive; idempotent.
  void drain();

  /// drain() + terminate and join the workers.  After shutdown every
  /// submit returns kShuttingDown.
  void shutdown();

  std::size_t queue_depth() const;
  const PoolConfig& config() const { return config_; }
  const ServiceMetrics& metrics() const { return metrics_; }
  MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

 private:
  /// A queued job plus its tracing identity.  trace_id != 0 marks a
  /// sampled job: it is the pre-allocated span id of the eventual
  /// "pool.job" root, decided at submit() so queue wait is attributable
  /// even though the record is only emitted when the job completes.
  struct Queued {
    AttestationJob job;
    std::uint64_t trace_id = 0;
    std::uint64_t enqueue_ns = 0;  ///< stamped iff trace_id != 0
  };

  void worker_loop();
  void run_job(const AttestationJob& job, std::uint64_t trace_id,
               std::uint64_t enqueue_ns);
  double estimate_retry_after_us() const;  ///< caller holds mutex_

  EmulatorCache* cache_;
  PoolConfig config_;
  CompletionFn on_complete_;
  ServiceMetrics metrics_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;   ///< queue non-empty or exiting
  std::condition_variable queue_idle_;   ///< queue empty and nothing in flight
  std::deque<Queued> queue_;
  std::size_t in_flight_ = 0;
  bool accepting_ = true;
  bool exiting_ = false;
  // Host-clock service-time accumulators feeding the retry-after hint.
  double total_service_us_ = 0.0;
  std::uint64_t serviced_ = 0;

  std::vector<std::thread> workers_;
};

}  // namespace pufatt::service

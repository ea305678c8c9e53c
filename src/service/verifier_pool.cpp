#include "service/verifier_pool.hpp"

#include <chrono>
#include <stdexcept>

namespace pufatt::service {

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kEnqueued: return "enqueued";
    case SubmitStatus::kRejectedBusy: return "rejected busy";
    case SubmitStatus::kShuttingDown: return "shutting down";
  }
  return "?";
}

VerifierPool::VerifierPool(EmulatorCache& cache, const PoolConfig& config,
                           CompletionFn on_complete)
    : cache_(&cache), config_(config), on_complete_(std::move(on_complete)) {
  if (config.workers == 0) {
    throw std::invalid_argument("VerifierPool: zero workers");
  }
  if (config.queue_capacity == 0) {
    throw std::invalid_argument("VerifierPool: zero queue capacity");
  }
  workers_.reserve(config.workers);
  for (std::size_t i = 0; i < config.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

VerifierPool::~VerifierPool() { shutdown(); }

double VerifierPool::estimate_retry_after_us() const {
  // Expected time until the queue has fully turned over once: depth jobs
  // at the mean observed service time, spread over the workers.  Before
  // any job completed there is no observed rate; fall back to one response
  // timeout, the natural time constant of a session.
  const double mean_service_us =
      serviced_ > 0 ? total_service_us_ / static_cast<double>(serviced_)
                    : config_.session.response_timeout_us;
  const double backlog = static_cast<double>(queue_.size() + in_flight_);
  return mean_service_us * backlog / static_cast<double>(config_.workers);
}

SubmitResult VerifierPool::submit(AttestationJob job) {
  SubmitResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      result.status = SubmitStatus::kShuttingDown;
      return result;
    }
    if (queue_.size() >= config_.queue_capacity) {
      result.status = SubmitStatus::kRejectedBusy;
      result.retry_after_us = estimate_retry_after_us();
      metrics_.record_rejected_busy();
      return result;
    }
    Queued item;
    item.job = std::move(job);
    if (config_.tracer != nullptr && config_.tracer->enabled()) {
      // Sampling is decided here, not at dequeue, so the queue-wait
      // interval of a sampled job starts at the moment of admission.
      // A wire-traced job skips the sampler: the client already decided
      // this trace is worth recording, and dropping the server half would
      // leave the client's timeline unjoinable.
      item.trace_id = item.job.wire_trace_id != 0 ? config_.tracer->next_id()
                                                  : config_.tracer->sample_root();
      if (item.trace_id != 0) item.enqueue_ns = obs::monotonic_ns();
    }
    queue_.push_back(std::move(item));
    metrics_.record_submitted();
    metrics_.observe_queue_depth(queue_.size());
  }
  work_ready_.notify_one();
  return result;
}

void VerifierPool::worker_loop() {
  for (;;) {
    Queued item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return exiting_ || !queue_.empty(); });
      if (queue_.empty()) return;  // exiting_ and nothing left to do
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    if (item.trace_id != 0 && config_.tracer != nullptr) {
      // The wait interval straddles two threads (stamped at submit, ends
      // here), so it is assembled manually rather than via Span RAII.
      obs::SpanRecord wait;
      wait.id = config_.tracer->next_id();
      wait.parent = item.trace_id;
      wait.name = "pool.queue_wait";
      wait.start_ns = item.enqueue_ns;
      wait.end_ns = obs::monotonic_ns();
      config_.tracer->emit(wait);
    }

    const double start_us = now_us();
    run_job(item.job, item.trace_id, item.enqueue_ns);
    const double service_us = now_us() - start_us;

    {
      std::lock_guard<std::mutex> lock(mutex_);
      total_service_us_ += service_us;
      ++serviced_;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) queue_idle_.notify_all();
    }
  }
}

void VerifierPool::run_job(const AttestationJob& job, std::uint64_t trace_id,
                           std::uint64_t enqueue_ns) {
  JobResult result;
  result.device_id = job.device_id;
  result.tag = job.tag;
  result.wire_trace_id = job.wire_trace_id;
  result.trace_span = trace_id;

  obs::Span verify_span;
  obs::TraceScope scope;  // stays inert when this job was not sampled
  if (trace_id != 0 && config_.tracer != nullptr) {
    verify_span = config_.tracer->span("pool.verify", trace_id);
    scope = obs::TraceScope{config_.tracer, verify_span.id()};
  }

  // Pins the cached verifier for the whole session; same-device jobs run
  // on it side by side.
  const auto verifier = cache_->acquire(job.device_id, scope);
  if (!verifier) {
    result.outcome = JobOutcome::kUnknownDevice;
    metrics_.record_outcome(result.outcome, 0.0);
  } else {
    core::FaultyChannel link(config_.channel, job.faults, job.channel_seed);
    core::AttestationSession session(*verifier, link, config_.session);
    support::Xoshiro256pp rng(job.rng_seed);
    result.session = session.run(job.responder, rng, scope);

    if (result.session.accepted()) {
      result.outcome = JobOutcome::kAccepted;
    } else if (result.session.conclusive()) {
      result.outcome = JobOutcome::kRejected;
    } else {
      result.outcome = JobOutcome::kInconclusive;
    }
    metrics_.record_outcome(result.outcome, result.session.total_us);
  }

  if (verify_span.active()) {
    verify_span.note("outcome", static_cast<double>(result.outcome));
    verify_span.end();
    // The job root reuses the id handed out by sample_root() at submit():
    // its children were parented under trace_id while the job ran, and the
    // record itself is emitted only now that the interval is closed.
    obs::SpanRecord root;
    root.id = trace_id;
    root.name = "pool.job";
    root.start_ns = enqueue_ns;
    root.end_ns = obs::monotonic_ns();
    root.notes[0] = obs::Note{"outcome", static_cast<double>(result.outcome)};
    root.note_count = 1;
    if (job.wire_trace_id != 0) {
      // Join keys for the cross-process merge: the client's trace id (its
      // root span id in *its* tracer's id space) and the client span this
      // job is conceptually parented under.  Ids stay below 2^53, so the
      // double-valued notes carry them exactly.
      root.notes[1] =
          obs::Note{"trace", static_cast<double>(job.wire_trace_id)};
      root.notes[2] =
          obs::Note{"parent_span", static_cast<double>(job.wire_parent_span)};
      root.note_count = 3;
    }
    config_.tracer->emit(root);
  }
  if (on_complete_) on_complete_(result);
}

void VerifierPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  queue_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void VerifierPool::shutdown() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (exiting_) return;  // already shut down; workers joined below once
    exiting_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

std::size_t VerifierPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace pufatt::service

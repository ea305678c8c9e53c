#include "net/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace pufatt::net {

namespace {

constexpr double kNsPerMs = 1e6;
/// Accept-queue depth handed to listen(2); the kernel clamps it to
/// net.core.somaxconn.  A fleet-scale connect storm overflows the
/// historical 128 default long before the loop is actually saturated,
/// and every overflowed SYN costs its client a ~1 s kernel retransmit.
constexpr int kListenBacklog = 4096;
constexpr std::size_t kReadChunkBytes = 64 * 1024;

}  // namespace

AttestationServer::AttestationServer(service::EmulatorCache& cache,
                                     ResponderFactory factory,
                                     const ServerConfig& config)
    : cache_(&cache),
      factory_(std::move(factory)),
      config_(config),
      bound_(config.endpoint),
      read_buf_(kReadChunkBytes) {
  listener_ = listen_on(config_.endpoint, kListenBacklog);
  bound_ = local_endpoint(listener_.get(), config_.endpoint);

  loop_.add(listener_.get(), EventLoop::kReadable,
            [this](std::uint32_t) { on_accept(); });
  if (config_.idle_timeout_ms > 0.0) {
    const double sweep_ms = std::max(config_.idle_timeout_ms / 4.0, 1.0);
    loop_.add_timer(std::min(sweep_ms, 250.0), [this] { sweep_idle(); });
  }
  if (!config_.metrics_jsonl.empty() && config_.stats_interval_ms > 0.0) {
    metrics_file_ = std::fopen(config_.metrics_jsonl.c_str(), "w");
    if (metrics_file_ == nullptr) {
      throw NetError("cannot open metrics JSONL: " + config_.metrics_jsonl);
    }
    loop_.add_timer(config_.stats_interval_ms,
                    [this] { append_metrics_snapshot(); });
  }

  pool_ = std::make_unique<service::VerifierPool>(
      cache, config_.pool, [this](const service::JobResult& result) {
        // Worker thread: hop to the loop thread, where connection state
        // lives.  The copy is the handoff.
        loop_.post([this, result] { on_job_complete(result); });
      });
}

AttestationServer::~AttestationServer() {
  // pool_ (declared last) is destroyed first: workers drain and join while
  // loop_ still accepts their completion posts.  The posts simply queue.
  if (config_.endpoint.kind == Endpoint::Kind::kUnix) {
    ::unlink(config_.endpoint.path.c_str());
  }
  if (metrics_file_ != nullptr) std::fclose(metrics_file_);
}

void AttestationServer::run() {
  loop_.run();

  // stop() was called.  Let the pool finish in-flight jobs, then account
  // for verdicts that no longer have a loop iteration to deliver them.
  pool_->drain();
  count([&](NetCounters& c) { c.replies_dropped += pending_.size(); });
  pending_.clear();

  std::vector<std::shared_ptr<Connection>> open;
  open.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) open.push_back(conn);
  for (const auto& conn : open) close_connection(conn);
  loop_.remove(listener_.get());
}

void AttestationServer::stop() { loop_.stop(); }

NetCounters AttestationServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  return counters_;
}

void AttestationServer::on_accept() {
  for (;;) {
    Fd fd = accept_on(listener_.get());
    if (!fd) break;

    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = std::move(fd);
    conn->last_activity_ns = obs::monotonic_ns();
    connections_[conn->id] = conn;
    count([](NetCounters& c) {
      ++c.accepted;
      ++c.open_connections;
    });

    if (config_.tracer && config_.tracer->enabled()) {
      auto span = config_.tracer->span("net.accept");
      span.note("fd", conn->fd.get());
      span.note("open", static_cast<double>(connections_.size()));
    }

    const auto weak_self = conn;  // callback owns the connection
    loop_.add(conn->fd.get(), EventLoop::kReadable,
              [this, weak_self](std::uint32_t events) {
                on_io(weak_self, events);
              });
  }
}

void AttestationServer::on_io(const std::shared_ptr<Connection>& conn,
                              std::uint32_t events) {
  if (conn->closing) return;
  if (events & EventLoop::kReadable) on_readable(conn);
  if (conn->closing) return;
  if (events & EventLoop::kWritable) flush_writes(conn);
  if (conn->closing) return;
  if (events & EventLoop::kError) close_connection(conn);
}

void AttestationServer::on_readable(const std::shared_ptr<Connection>& conn) {
  obs::Span span;
  if (config_.tracer && config_.tracer->enabled()) {
    span = config_.tracer->span("net.read");
  }
  std::size_t event_bytes = 0;
  std::size_t event_frames = 0;
  std::uint64_t event_trace = 0;  ///< first traced frame seen this event
  std::vector<FrameDecoder::Frame> frames;

  for (;;) {
    const ssize_t n =
        ::read(conn->fd.get(), read_buf_.data(), read_buf_.size());
    if (n > 0) {
      event_bytes += static_cast<std::size_t>(n);
      conn->last_activity_ns = obs::monotonic_ns();
      frames.clear();
      const bool ok = conn->decoder.feed(
          read_buf_.data(), static_cast<std::size_t>(n), frames);
      for (const auto& frame : frames) {
        ++event_frames;
        if (event_trace == 0) event_trace = frame.trace.trace_id;
        dispatch_frame(conn, frame);
        if (conn->closing) break;
      }
      if (conn->closing) break;
      if (!ok) {
        count([](NetCounters& c) { ++c.decode_errors; });
        close_connection(conn);
        break;
      }
      continue;
    }
    if (n == 0) {  // orderly shutdown from the peer
      close_connection(conn);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_connection(conn);
    break;
  }

  count([&](NetCounters& c) { c.bytes_in += event_bytes; });
  if (span.active()) {
    span.note("bytes", static_cast<double>(event_bytes));
    span.note("frames", static_cast<double>(event_frames));
    if (event_trace != 0) {
      span.note("trace", static_cast<double>(event_trace));
    }
  }
}

void AttestationServer::dispatch_frame(const std::shared_ptr<Connection>& conn,
                                       const FrameDecoder::Frame& frame) {
  count([](NetCounters& c) { ++c.frames_in; });
  if (frame.type == MsgType::kStatsRequest) {
    StatsRequest probe;
    try {
      probe = decode_stats_request(frame.payload);
    } catch (const core::SerializationError&) {
      count([](NetCounters& c) {
        ++c.payload_errors;
        ++c.frames_rejected;
        ++c.error_replies;
      });
      send_bytes(conn, encode_error_reply(
                           ErrorReply{0, ErrorCode::kMalformedPayload}));
      close_connection(conn);
      return;
    }
    // Served inline on the loop thread: the snapshot is a few hundred
    // bytes of relaxed-atomic reads, cheaper than one verify, and the
    // connection stays open — an operator polls over one socket.
    StatsReply reply;
    reply.tag = probe.tag;
    reply.stats_json = stats_json();
    count([](NetCounters& c) { ++c.stats_served; });
    send_bytes(conn, encode_stats_reply(reply));
    return;
  }
  if (frame.type != MsgType::kJobRequest) {
    count([](NetCounters& c) {
      ++c.payload_errors;
      ++c.frames_rejected;
      ++c.error_replies;
    });
    send_bytes(conn, encode_error_reply(
                         ErrorReply{0, ErrorCode::kUnknownMessageType}));
    close_connection(conn);
    return;
  }
  JobRequest request;
  try {
    request = decode_job_request(frame.payload);
  } catch (const core::SerializationError&) {
    count([](NetCounters& c) {
      ++c.payload_errors;
      ++c.frames_rejected;
      ++c.error_replies;
    });
    send_bytes(conn,
               encode_error_reply(ErrorReply{0, ErrorCode::kMalformedPayload}));
    close_connection(conn);
    return;
  }
  handle_job_request(conn, request, frame.trace);
}

void AttestationServer::handle_job_request(
    const std::shared_ptr<Connection>& conn, const JobRequest& request,
    const TraceContext& trace) {
  count([](NetCounters& c) { ++c.requests; });

  core::Responder responder = factory_(request);
  if (!responder) {
    // Unknown device: same verdict the pool would produce, without
    // spending queue capacity on it.  No pool.job span exists, so a
    // traced request gets its trace id echoed with span_id = 0 — the
    // client still closes its timeline, there is just no server half.
    VerdictReply reply;
    reply.tag = request.tag;
    reply.outcome = service::JobOutcome::kUnknownDevice;
    reply.status = core::SessionStatus::kTimeout;
    count([](NetCounters& c) { ++c.verdicts_sent; });
    send_bytes(conn,
               encode_verdict_reply(reply, TraceContext{trace.trace_id, 0}));
    return;
  }

  service::AttestationJob job;
  job.device_id = request.device_id;
  job.responder = std::move(responder);
  job.channel_seed = request.channel_seed;
  job.rng_seed = request.rng_seed;
  // Adopt the client's trace identity: the pool notes it on the pool.job
  // root, which is what links the server's spans into the client's trace.
  job.wire_trace_id = trace.trace_id;
  job.wire_parent_span = trace.span_id;
  const std::uint64_t corr_id = next_corr_id_++;
  job.tag = corr_id;

  const auto submitted = pool_->submit(std::move(job));
  switch (submitted.status) {
    case service::SubmitStatus::kEnqueued:
      pending_[corr_id] = Pending{conn->id, request.tag};
      break;
    case service::SubmitStatus::kRejectedBusy: {
      // The pool's backpressure, verbatim, as a wire reply: the client
      // learns both "not now" and "when".
      count([](NetCounters& c) { ++c.busy_replies; });
      send_bytes(conn,
                 encode_busy_reply(
                     BusyReply{request.tag, submitted.retry_after_us},
                     TraceContext{trace.trace_id, 0}));
      break;
    }
    case service::SubmitStatus::kShuttingDown:
      count([](NetCounters& c) { ++c.error_replies; });
      send_bytes(conn, encode_error_reply(
                           ErrorReply{request.tag, ErrorCode::kShuttingDown}));
      break;
  }
}

void AttestationServer::on_job_complete(const service::JobResult& result) {
  const auto it = pending_.find(result.tag);
  if (it == pending_.end()) return;  // already accounted at shutdown
  const Pending pending = it->second;
  pending_.erase(it);

  const auto conn_it = connections_.find(pending.conn_id);
  if (conn_it == connections_.end()) {
    count([](NetCounters& c) { ++c.replies_dropped; });
    return;
  }

  obs::Span span;
  if (config_.tracer && config_.tracer->enabled()) {
    span = config_.tracer->span("net.reply");
    span.note("outcome", static_cast<double>(result.outcome));
    span.note("attempts", static_cast<double>(result.session.attempts.size()));
    if (result.wire_trace_id != 0) {
      span.note("trace", static_cast<double>(result.wire_trace_id));
    }
  }

  VerdictReply reply;
  reply.tag = pending.client_tag;
  reply.outcome = result.outcome;
  reply.status = result.session.status;
  reply.attempts = static_cast<std::uint32_t>(result.session.attempts.size());
  reply.total_us = result.session.total_us;
  count([](NetCounters& c) { ++c.verdicts_sent; });
  // A traced job's reply echoes the client's trace id and carries this
  // server's pool.job root span id — the cross-process join key.
  send_bytes(conn_it->second,
             encode_verdict_reply(
                 reply, TraceContext{result.wire_trace_id, result.trace_span}));
}

void AttestationServer::send_bytes(const std::shared_ptr<Connection>& conn,
                                   std::vector<std::uint8_t> bytes) {
  if (conn->closing) return;
  // Outbound verdicts count as liveness: a client blocked on a slow
  // verify is waiting, not idling.
  conn->last_activity_ns = obs::monotonic_ns();
  conn->write_queue_bytes += bytes.size();
  conn->write_queue.push_back(std::move(bytes));
  if (conn->write_queue_bytes > config_.max_write_queue_bytes) {
    // The client is submitting jobs without reading verdicts; buffering
    // without bound would let one peer hold the server's memory hostage.
    count([](NetCounters& c) { ++c.writeq_shed; });
    close_connection(conn);
    return;
  }
  flush_writes(conn);
}

void AttestationServer::flush_writes(const std::shared_ptr<Connection>& conn) {
  while (!conn->write_queue.empty()) {
    const auto& front = conn->write_queue.front();
    // MSG_NOSIGNAL: a peer that closed with replies still queued must
    // surface as EPIPE here, not as a process-wide SIGPIPE.
    const ssize_t n =
        ::send(conn->fd.get(), front.data() + conn->front_offset,
               front.size() - conn->front_offset, MSG_NOSIGNAL);
    if (n > 0) {
      count([&](NetCounters& c) { c.bytes_out += static_cast<std::uint64_t>(n); });
      conn->front_offset += static_cast<std::size_t>(n);
      if (conn->front_offset == front.size()) {
        conn->write_queue_bytes -= front.size();
        conn->front_offset = 0;
        conn->write_queue.pop_front();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->want_write) {
        conn->want_write = true;
        loop_.modify(conn->fd.get(),
                     EventLoop::kReadable | EventLoop::kWritable);
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_connection(conn);  // EPIPE / ECONNRESET and friends
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    loop_.modify(conn->fd.get(), EventLoop::kReadable);
  }
}

void AttestationServer::close_connection(
    const std::shared_ptr<Connection>& conn) {
  if (conn->closing) return;
  conn->closing = true;
  loop_.remove(conn->fd.get());
  conn->fd.reset();
  connections_.erase(conn->id);
  count([](NetCounters& c) {
    ++c.closed;
    --c.open_connections;
  });
}

std::string AttestationServer::stats_json() const {
  const NetCounters net = counters();
  const service::MetricsSnapshot pool = pool_->metrics_snapshot();
  const std::uint64_t depth = pool_->queue_depth();

  // Hand-rolled on purpose: byte-stability is the contract (same state →
  // same bytes), so the serializer is the specification.  Keys are sorted
  // within every object, values are decimal integers, no whitespace.
  std::string out;
  out.reserve(768);
  auto field = [&out](const char* name, std::uint64_t value,
                      bool last = false) {
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(value);
    if (!last) out += ',';
  };
  out += "{\"net\":{";
  field("accepted", net.accepted);
  field("busy_replies", net.busy_replies);
  field("bytes_in", net.bytes_in);
  field("bytes_out", net.bytes_out);
  field("closed", net.closed);
  field("decode_errors", net.decode_errors);
  field("error_replies", net.error_replies);
  field("frames_in", net.frames_in);
  field("frames_rejected", net.frames_rejected);
  field("idle_evicted", net.idle_evicted);
  field("open_connections", net.open_connections);
  field("payload_errors", net.payload_errors);
  field("replies_dropped", net.replies_dropped);
  field("requests", net.requests);
  field("stats_served", net.stats_served);
  field("verdicts_sent", net.verdicts_sent);
  field("writeq_shed", net.writeq_shed, true);
  out += "},\"pool\":{";
  field("accepted", pool.accepted);
  field("inconclusive", pool.inconclusive);
  field("queue_capacity", config_.pool.queue_capacity);
  field("queue_depth", depth);
  field("queue_depth_hwm", pool.queue_depth_hwm);
  field("rejected", pool.rejected);
  field("rejected_busy", pool.rejected_busy);
  field("submitted", pool.submitted);
  field("unknown_device", pool.unknown_device);
  field("workers", config_.pool.workers, true);
  out += "},\"registry\":";
  out += config_.registry != nullptr ? config_.registry->snapshot_json() : "{}";
  out += '}';
  return out;
}

void AttestationServer::append_metrics_snapshot() {
  if (metrics_file_ == nullptr) return;
  const std::string line = "{\"ts_ns\":" + std::to_string(obs::monotonic_ns()) +
                           ",\"stats\":" + stats_json() + "}\n";
  std::fwrite(line.data(), 1, line.size(), metrics_file_);
  // Flushed per tick: the file is an operator's live tail, and a tick is
  // orders of magnitude rarer than a verdict.
  std::fflush(metrics_file_);
}

void AttestationServer::sweep_idle() {
  const std::uint64_t now = obs::monotonic_ns();
  const auto budget_ns =
      static_cast<std::uint64_t>(config_.idle_timeout_ms * kNsPerMs);
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [id, conn] : connections_) {
    if (now - conn->last_activity_ns > budget_ns) idle.push_back(conn);
  }
  for (const auto& conn : idle) {
    count([](NetCounters& c) { ++c.idle_evicted; });
    close_connection(conn);
  }
}

}  // namespace pufatt::net

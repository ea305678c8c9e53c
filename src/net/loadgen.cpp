#include "net/loadgen.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>

#include "obs/trace.hpp"

namespace pufatt::net {

namespace {

/// Job j's seeds are base + mult * j (see job_for).
constexpr std::uint64_t kChannelSeedMult = 31;
constexpr std::uint64_t kRngSeedMult = 17;
/// Thundering-herd breaker: each retry waits (1-jitter, 1] x the clamped
/// hint, drawn from a deterministic per-generator stream.  A whole fleet
/// shed in one burst gets the same hint back; without jitter it returns
/// in one synchronized wave that mostly sheds again while the server
/// idles between waves.
constexpr double kRetryJitter = 0.5;

}  // namespace

struct LoadGenerator::Conn {
  std::size_t index = 0;       ///< connection ordinal
  std::size_t job = 0;         ///< current job id (global)
  std::size_t jobs_done = 0;   ///< jobs driven to a terminal state
  Fd fd;
  FrameDecoder decoder;
  std::deque<std::vector<std::uint8_t>> write_queue;
  std::size_t front_offset = 0;
  bool want_write = false;
  bool awaiting_reply = false;
  bool waiting_retry = false;
  bool done = false;           ///< all jobs terminal; fd closed
  std::uint32_t busy_retries = 0;
  std::uint64_t send_ns = 0;     ///< first send of the current job
  std::uint64_t trace_id = 0;    ///< sampled client.job root id (0 = untraced)
  std::uint64_t attempt_ns = 0;  ///< send of the *current* attempt
};

LoadGenerator::LoadGenerator(const LoadGenConfig& config)
    : config_(config) {}

JobRequest LoadGenerator::job_for(const LoadGenConfig& config,
                                  std::size_t job) {
  JobRequest request;
  request.device_id =
      "dev-" + std::to_string(config.devices > 0 ? job % config.devices : 0);
  request.channel_seed = config.channel_seed_base + kChannelSeedMult * job;
  request.rng_seed = config.rng_seed_base + kRngSeedMult * job;
  request.tag = job;
  return request;
}

LoadGenReport LoadGenerator::run() {
  report_ = LoadGenReport{};
  report_.jobs = config_.connections * config_.jobs_per_connection;
  report_.by_job.assign(report_.jobs, JobVerdict{});
  conns_.clear();
  retry_at_.clear();
  live_conns_ = 0;

  const auto start = std::chrono::steady_clock::now();

  // The retry queue is the only time-driven work; 1ms resolution is far
  // below any realistic retry-after hint.  Armed before the connect loop so
  // the interleaved polls below can already fire it.
  loop_.add_timer(1.0, [this] { check_retry_queue(); });

  for (std::size_t c = 0; c < config_.connections; ++c) {
    open_connection(c);
    // A fleet-scale connect storm can take long enough (accept-queue
    // overflow puts stragglers into SYN retransmit) that early connections
    // already hold replies.  Service them as we go: an unread BusyReply is
    // a silent connection, and a silent connection eventually gets
    // idle-evicted by the server.
    if ((c & 63u) == 63u) loop_.poll_once(0);
  }

  maybe_finish();  // degenerate configs (0 jobs, all connects failed)
  if (live_conns_ > 0) loop_.run();

  report_.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  for (const auto& conn : conns_) {
    if (conn && !conn->done) close_conn(conn);
  }
  return report_;
}

void LoadGenerator::open_connection(std::size_t index) {
  auto conn = std::make_shared<Conn>();
  conn->index = index;
  conn->job = index * config_.jobs_per_connection;

  // Under a mass connect burst the accept queue can transiently overflow;
  // a couple of paced retries ride it out.
  for (int attempt = 0;; ++attempt) {
    try {
      conn->fd = connect_to(config_.endpoint);
      break;
    } catch (const NetError&) {
      if (attempt >= 3) {
        ++report_.connect_failures;
        conn->done = true;
        conns_.push_back(std::move(conn));
        fail_remaining(conns_.back());
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    }
  }

  ++live_conns_;
  conns_.push_back(conn);
  loop_.add(conn->fd.get(), EventLoop::kReadable,
            [this, conn](std::uint32_t events) { on_io(conn, events); });
  if (config_.jobs_per_connection == 0) {
    close_conn(conn);
    return;
  }
  send_current_job(conn);
}

void LoadGenerator::on_io(const std::shared_ptr<Conn>& conn,
                          std::uint32_t events) {
  if (conn->done) return;
  if (events & EventLoop::kReadable) {
    std::uint8_t buf[16 * 1024];
    std::vector<FrameDecoder::Frame> frames;
    for (;;) {
      const ssize_t n = ::read(conn->fd.get(), buf, sizeof(buf));
      if (n > 0) {
        report_.bytes_in += static_cast<std::uint64_t>(n);
        frames.clear();
        const bool ok =
            conn->decoder.feed(buf, static_cast<std::size_t>(n), frames);
        for (const auto& frame : frames) {
          on_reply(conn, frame);
          if (conn->done) return;
        }
        if (!ok) {
          ++report_.decode_errors;
          fail_remaining(conn);
          close_conn(conn);
          return;
        }
        continue;
      }
      if (n == 0) {
        ++report_.disconnects;
        fail_remaining(conn);
        close_conn(conn);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      ++report_.disconnects;
      fail_remaining(conn);
      close_conn(conn);
      return;
    }
  }
  if (conn->done) return;
  if (events & EventLoop::kWritable) flush_writes(conn);
  if (conn->done) return;
  if (events & EventLoop::kError) {
    ++report_.disconnects;
    fail_remaining(conn);
    close_conn(conn);
  }
}

void LoadGenerator::on_reply(const std::shared_ptr<Conn>& conn,
                             const FrameDecoder::Frame& frame) {
  if (!conn->awaiting_reply) return;  // unsolicited frame; ignore

  try {
    switch (frame.type) {
      case MsgType::kVerdictReply: {
        const VerdictReply reply = decode_verdict_reply(frame.payload);
        if (reply.tag != conn->job) break;  // stale reply; keep waiting
        const std::uint64_t now = obs::monotonic_ns();
        auto& verdict = report_.by_job[conn->job];
        verdict.completed = true;
        verdict.reply = reply;
        verdict.busy_retries = conn->busy_retries;
        verdict.latency_us =
            static_cast<double>(now - conn->send_ns) / 1e3;
        ++report_.verdicts;
        if (conn->trace_id != 0) {
          // The terminal attempt's wire interval, then the job root.  The
          // root's notes carry the cross-process join key ("trace") and
          // the server's pool.job root span id echoed in the reply.
          obs::SpanRecord wire;
          wire.id = config_.tracer->next_id();
          wire.parent = conn->trace_id;
          wire.name = "client.wire";
          wire.start_ns = conn->attempt_ns;
          wire.end_ns = now;
          wire.notes[0] = obs::Note{"busy", 0.0};
          wire.note_count = 1;
          config_.tracer->emit(wire);

          obs::SpanRecord root;
          root.id = conn->trace_id;
          root.name = "client.job";
          root.start_ns = conn->send_ns;
          root.end_ns = now;
          root.notes[0] =
              obs::Note{"trace", static_cast<double>(conn->trace_id)};
          root.notes[1] =
              obs::Note{"outcome", static_cast<double>(reply.outcome)};
          root.notes[2] = obs::Note{
              "server_span", static_cast<double>(frame.trace.span_id)};
          root.notes[3] = obs::Note{
              "busy_retries", static_cast<double>(conn->busy_retries)};
          root.note_count = 4;
          config_.tracer->emit(root);
        }
        switch (reply.outcome) {
          case service::JobOutcome::kAccepted: ++report_.accepted; break;
          case service::JobOutcome::kRejected: ++report_.rejected; break;
          case service::JobOutcome::kInconclusive:
            ++report_.inconclusive;
            break;
          case service::JobOutcome::kUnknownDevice:
            ++report_.unknown_device;
            break;
        }
        advance(conn);
        break;
      }
      case MsgType::kBusyReply: {
        const BusyReply busy = decode_busy_reply(frame.payload);
        if (busy.tag != conn->job) break;
        ++report_.busy_replies;
        ++conn->busy_retries;
        if (conn->trace_id != 0) {
          // One wire interval per shed attempt: the merge can tell time
          // lost to backpressure from time inside the accepted attempt.
          obs::SpanRecord wire;
          wire.id = config_.tracer->next_id();
          wire.parent = conn->trace_id;
          wire.name = "client.wire";
          wire.start_ns = conn->attempt_ns;
          wire.end_ns = obs::monotonic_ns();
          wire.notes[0] = obs::Note{"busy", 1.0};
          wire.note_count = 1;
          config_.tracer->emit(wire);
        }
        if (conn->busy_retries > config_.max_busy_retries) {
          ++report_.retries_exhausted;
          advance(conn);  // abandon this job, move on
          break;
        }
        // Obey the hint (clamped): re-send when the server expects room.
        // The floor also keeps a sub-floor configured ceiling legal.
        double wait_us =
            std::clamp(busy.retry_after_us, 100.0,
                       std::max(100.0, config_.max_retry_wait_ms * 1e3));
        // De-synchronize the retry wave (see kRetryJitter).
        jitter_state_ += 0x9E3779B97F4A7C15ull;  // splitmix64
        std::uint64_t z = jitter_state_;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        z ^= z >> 31;
        const double u01 = static_cast<double>(z >> 11) * 0x1.0p-53;
        wait_us *= 1.0 - kRetryJitter * u01;
        conn->awaiting_reply = false;
        conn->waiting_retry = true;
        retry_at_.emplace(
            obs::monotonic_ns() + static_cast<std::uint64_t>(wait_us * 1e3),
            conn);
        break;
      }
      case MsgType::kErrorReply: {
        ++report_.error_replies;
        fail_remaining(conn);
        close_conn(conn);
        break;
      }
      case MsgType::kJobRequest:
        break;  // a server never sends requests; ignore
      case MsgType::kStatsRequest:
      case MsgType::kStatsReply:
        break;  // the load generator never asks for fleet stats; ignore
    }
  } catch (const core::SerializationError&) {
    ++report_.decode_errors;
    fail_remaining(conn);
    close_conn(conn);
  }
}

void LoadGenerator::send_current_job(const std::shared_ptr<Conn>& conn) {
  const JobRequest request = job_for(config_, conn->job);
  conn->awaiting_reply = true;
  conn->waiting_retry = false;
  if (conn->busy_retries == 0) {
    // First attempt: this job's sampling decision is made here, once —
    // busy retries reuse the same trace so the whole shed-and-retry
    // history lands under one client.job root.
    conn->send_ns = obs::monotonic_ns();
    conn->trace_id =
        config_.tracer != nullptr && config_.tracer->enabled()
            ? config_.tracer->sample_root()
            : 0;
  }
  conn->attempt_ns = obs::monotonic_ns();
  // A sampled job stamps its root id as both trace id and parent span:
  // the server parents its work under the client root directly.
  auto bytes = encode_job_request(
      request, TraceContext{conn->trace_id, conn->trace_id});
  report_.bytes_out += bytes.size();
  conn->write_queue.push_back(std::move(bytes));
  flush_writes(conn);
}

void LoadGenerator::advance(const std::shared_ptr<Conn>& conn) {
  ++conn->jobs_done;
  conn->busy_retries = 0;
  conn->awaiting_reply = false;
  conn->trace_id = 0;  // next job makes its own sampling decision
  if (conn->jobs_done >= config_.jobs_per_connection) {
    close_conn(conn);
    return;
  }
  ++conn->job;
  send_current_job(conn);
}

void LoadGenerator::fail_remaining(const std::shared_ptr<Conn>& conn) {
  // Jobs this connection will never finish stay !completed in by_job;
  // nothing further to record per job.
  conn->awaiting_reply = false;
}

void LoadGenerator::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->done) return;
  conn->done = true;
  if (conn->fd) {
    loop_.remove(conn->fd.get());
    conn->fd.reset();
    --live_conns_;
  }
  maybe_finish();
}

void LoadGenerator::flush_writes(const std::shared_ptr<Conn>& conn) {
  while (!conn->write_queue.empty()) {
    const auto& front = conn->write_queue.front();
    // MSG_NOSIGNAL: a dying server must read as EPIPE, not kill the run.
    const ssize_t n =
        ::send(conn->fd.get(), front.data() + conn->front_offset,
               front.size() - conn->front_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->front_offset += static_cast<std::size_t>(n);
      if (conn->front_offset == front.size()) {
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
    ++report_.disconnects;
    fail_remaining(conn);
    close_conn(conn);
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    loop_.modify(conn->fd.get(), EventLoop::kReadable);
  }
}

void LoadGenerator::check_retry_queue() {
  const std::uint64_t now = obs::monotonic_ns();
  while (!retry_at_.empty() && retry_at_.begin()->first <= now) {
    auto conn = retry_at_.begin()->second;
    retry_at_.erase(retry_at_.begin());
    if (conn->done || !conn->waiting_retry) continue;
    send_current_job(conn);
  }
}

void LoadGenerator::maybe_finish() {
  if (live_conns_ == 0) loop_.stop();
}

}  // namespace pufatt::net

// Socket front end for the attestation service.
//
// One event-loop thread owns every connection; a VerifierPool owns the
// verify work.  The seam between them is exactly the pool's submit
// contract: decoded JobRequests are submitted without blocking, and the
// two non-enqueue outcomes become wire replies — kRejectedBusy turns into
// a BusyReply carrying the pool's retry-after hint (the fleet-level
// backpressure signal), kShuttingDown into an ErrorReply.  Verdicts travel
// back from worker threads via EventLoop::post, so connection state is
// only ever touched on the loop thread.
//
// Connection lifecycle and shedding rules (DESIGN.md §14):
//   * accept → read/decode frames → submit; replies queue per connection
//     and flush as the socket drains.
//   * Any framing violation (bad magic, oversized declared length, CRC
//     mismatch) closes the connection: a desynced stream cannot be
//     re-trusted.  A structurally valid frame with an unservable payload
//     gets an ErrorReply, then the connection closes too.
//   * A connection idle (no bytes received) past `idle_timeout_ms` is
//     evicted — slow-drip clients cannot pin fds open.
//   * A connection whose write queue exceeds `max_write_queue_bytes`
//     (a client that sends jobs but never reads verdicts) is shed.
//   * Jobs whose connection died before the verdict completed are counted
//     (`replies_dropped`) and the verdict is discarded: the pool finishes
//     what it started, the socket layer just loses the delivery.
//
// Observability: `net.accept` (per accepted connection), `net.read` (per
// readable event: bytes in, frames decoded), `net.reply` (per verdict
// delivery: encode + enqueue + opportunistic flush) spans under
// `config.tracer`, plus NetCounters mirroring the service-metrics idiom.
//
// Distributed tracing (DESIGN.md §16): a traced JobRequest's context is
// adopted — the pool.job root records the client's trace id, and the
// verdict reply carries this server's root span id back — so a client
// trace file and a server trace file merge into one cross-process
// timeline.  Untraced requests get untraced replies, byte-identical to
// the pre-trace protocol.
//
// Live telemetry: a kStatsRequest frame is answered inline on the loop
// thread with stats_json(), a byte-stable snapshot of net counters, pool
// state and (when configured) the process MetricRegistry; a periodic
// loop timer can append the same snapshots to a metrics JSONL file.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/verifier_pool.hpp"

namespace pufatt::net {

/// Builds the responder for a wire job (the simulated prover).  Runs on
/// the loop thread; the returned function runs on pool worker threads.
/// An empty responder means "unknown device": the server short-circuits a
/// kUnknownDevice verdict without consuming pool capacity.
using ResponderFactory =
    std::function<core::Responder(const JobRequest& request)>;

struct ServerConfig {
  Endpoint endpoint;                    ///< tcp:HOST:PORT (0 = ephemeral) or unix:PATH
  service::PoolConfig pool;             ///< workers, queue bound, session/channel
  double idle_timeout_ms = 30'000.0;    ///< evict silent connections
  std::size_t max_write_queue_bytes = 1u << 20;  ///< per-connection cap
  obs::Tracer* tracer = nullptr;        ///< must outlive the server; null = off
  /// Optional process-wide metric registry (the store's WAL and compaction
  /// counters live there).  Included verbatim in the stats frame and the
  /// metrics JSONL; must outlive the server.  Null = "registry":{}.
  obs::MetricRegistry* registry = nullptr;
  /// When non-empty, a loop timer appends one
  /// `{"ts_ns":...,"stats":<stats_json()>}` line per tick to this file.
  std::string metrics_jsonl;
  double stats_interval_ms = 250.0;     ///< metrics ticker cadence
};

/// Monotonic event counters plus the live-connection gauge.  snapshot() is
/// loop-thread-consistent: take it via run-loop quiescence (stop) or
/// accept small skew, exactly like service metrics.
struct NetCounters {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;           ///< all closes, whatever the reason
  std::uint64_t idle_evicted = 0;
  std::uint64_t decode_errors = 0;    ///< framing violations (connection died)
  std::uint64_t payload_errors = 0;   ///< intact frame, unservable payload
  /// Structurally valid frames the server refused to dispatch (unknown
  /// type or payload failed its codec).  Always moves in lockstep with
  /// payload_errors today; split out so the shed-path accounting tests
  /// can pin the relationship down.
  std::uint64_t frames_rejected = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t requests = 0;         ///< well-formed JobRequests dispatched
  std::uint64_t verdicts_sent = 0;
  std::uint64_t stats_served = 0;     ///< StatsReply frames sent
  std::uint64_t busy_replies = 0;     ///< pool backpressure relayed to the wire
  std::uint64_t error_replies = 0;
  std::uint64_t replies_dropped = 0;  ///< verdict outlived its connection
  std::uint64_t writeq_shed = 0;      ///< connections killed by the write cap
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t open_connections = 0;  ///< gauge
};

class AttestationServer {
 public:
  /// Binds and listens immediately (so an ephemeral port is known before
  /// run()), but accepts nothing until run().  `cache` must outlive the
  /// server; `factory` is called on the loop thread.
  AttestationServer(service::EmulatorCache& cache, ResponderFactory factory,
                    const ServerConfig& config);
  ~AttestationServer();

  AttestationServer(const AttestationServer&) = delete;
  AttestationServer& operator=(const AttestationServer&) = delete;

  /// Serves until stop(); returns after every connection is closed.  The
  /// pool keeps draining in-flight jobs until destruction.
  void run();

  /// Thread-safe, idempotent.
  void stop();

  /// Where clients should connect (ephemeral TCP port resolved).
  const Endpoint& bound_endpoint() const { return bound_; }

  NetCounters counters() const;
  const service::VerifierPool& pool() const { return *pool_; }
  service::VerifierPool& pool() { return *pool_; }

  /// Byte-stable live-telemetry snapshot (the kStatsReply body): sorted
  /// keys, no whitespace, integer counters.  Thread-safe — counters are
  /// read under their mutex, the pool's metrics are relaxed-atomic reads
  /// — so mid-load snapshots are each-counter-consistent, like
  /// NetCounters::snapshot semantics.
  std::string stats_json() const;

 private:
  struct Connection {
    std::uint64_t id = 0;
    Fd fd;
    FrameDecoder decoder;
    std::deque<std::vector<std::uint8_t>> write_queue;
    std::size_t write_queue_bytes = 0;
    std::size_t front_offset = 0;   ///< bytes of write_queue.front() already sent
    bool want_write = false;        ///< kWritable interest currently registered
    std::uint64_t last_activity_ns = 0;
    bool closing = false;
  };

  void on_accept();
  void on_io(const std::shared_ptr<Connection>& conn, std::uint32_t events);
  void on_readable(const std::shared_ptr<Connection>& conn);
  void dispatch_frame(const std::shared_ptr<Connection>& conn,
                      const FrameDecoder::Frame& frame);
  void handle_job_request(const std::shared_ptr<Connection>& conn,
                          const JobRequest& request,
                          const TraceContext& trace);
  void append_metrics_snapshot();
  void on_job_complete(const service::JobResult& result);
  void send_bytes(const std::shared_ptr<Connection>& conn,
                  std::vector<std::uint8_t> bytes);
  void flush_writes(const std::shared_ptr<Connection>& conn);
  void close_connection(const std::shared_ptr<Connection>& conn);
  void sweep_idle();

  /// All counter mutations happen on the loop thread; the lock only
  /// orders them against off-thread counters() readers.
  template <typename Fn>
  void count(Fn&& fn) {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    fn(counters_);
  }

  service::EmulatorCache* cache_;
  ResponderFactory factory_;
  ServerConfig config_;
  Endpoint bound_;

  EventLoop loop_;
  Fd listener_;
  /// on_readable's read buffer; loop thread only, so it needs no lock.
  std::vector<std::uint8_t> read_buf_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  /// In-flight pool jobs: server correlation id -> (connection, client tag).
  struct Pending {
    std::uint64_t conn_id = 0;
    std::uint64_t client_tag = 0;
  };
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_corr_id_ = 1;
  NetCounters counters_;
  mutable std::mutex counters_mutex_;  ///< counters_ reads off-thread
  /// Metrics JSONL sink (loop thread only); null when not configured.
  std::FILE* metrics_file_ = nullptr;

  // Declared last on purpose: the pool must be destroyed (drained, workers
  // joined) while loop_ is still alive, because completions post into it.
  std::unique_ptr<service::VerifierPool> pool_;
};

}  // namespace pufatt::net

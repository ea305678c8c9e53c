// Network front-end tests: frame codecs and the incremental decoder under
// adversarial chunking, the event loop on both backends, and the
// AttestationServer's lifecycle/backpressure/shedding rules end-to-end
// over real sockets (TCP loopback and Unix domain).  Every multi-threaded
// test here is expected to run clean under -DPUFATT_TSAN=ON.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/event_loop.hpp"
#include "net/fleet.hpp"
#include "net/frame.hpp"
#include "net/loadgen.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"
#include "obs/trace_read.hpp"
#include "service/emulator_cache.hpp"
#include "service/verifier_pool.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace pufatt::net {
namespace {

using support::Xoshiro256pp;

// --- Endpoint ---------------------------------------------------------------

TEST(Endpoint, ParsesAndDescribes) {
  const auto tcp = Endpoint::parse("tcp:127.0.0.1:4433");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 4433);
  EXPECT_EQ(tcp.describe(), "tcp:127.0.0.1:4433");

  const auto uds = Endpoint::parse("unix:/tmp/pufatt.sock");
  EXPECT_EQ(uds.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(uds.path, "/tmp/pufatt.sock");
  EXPECT_EQ(uds.describe(), "unix:/tmp/pufatt.sock");
}

TEST(Endpoint, RejectsMalformedSpecs) {
  for (const char* bad :
       {"", "tcp:", "tcp:127.0.0.1", "tcp:127.0.0.1:", "tcp::443",
        "tcp:127.0.0.1:99999", "tcp:127.0.0.1:44x3", "unix:", "udp:1.2.3.4:5",
        "127.0.0.1:4433"}) {
    EXPECT_THROW(Endpoint::parse(bad), NetError) << bad;
  }
}

// --- message codecs ---------------------------------------------------------

TEST(FrameCodec, JobRequestRoundTrips) {
  JobRequest msg;
  msg.device_id = "dev-42";
  msg.channel_seed = 0xC0FFEE12345678ULL;
  msg.rng_seed = 0x5EED5EED5EEDULL;
  msg.tag = 0xFFFFFFFFFFFFFFFFULL;
  const auto frame = encode_job_request(msg);

  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  ASSERT_TRUE(decoder.feed(frame, out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, MsgType::kJobRequest);
  const auto parsed = decode_job_request(out[0].payload);
  EXPECT_EQ(parsed.device_id, msg.device_id);
  EXPECT_EQ(parsed.channel_seed, msg.channel_seed);
  EXPECT_EQ(parsed.rng_seed, msg.rng_seed);
  EXPECT_EQ(parsed.tag, msg.tag);
}

TEST(FrameCodec, ReplyMessagesRoundTrip) {
  VerdictReply verdict{7, service::JobOutcome::kRejected,
                       core::SessionStatus::kRejected, 3, 123456.75};
  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  ASSERT_TRUE(decoder.feed(encode_verdict_reply(verdict), out));
  const auto v = decode_verdict_reply(out.back().payload);
  EXPECT_EQ(v.tag, 7u);
  EXPECT_EQ(v.outcome, service::JobOutcome::kRejected);
  EXPECT_EQ(v.status, core::SessionStatus::kRejected);
  EXPECT_EQ(v.attempts, 3u);
  EXPECT_EQ(v.total_us, 123456.75);

  ASSERT_TRUE(decoder.feed(encode_busy_reply(BusyReply{9, 2500.0}), out));
  const auto b = decode_busy_reply(out.back().payload);
  EXPECT_EQ(b.tag, 9u);
  EXPECT_EQ(b.retry_after_us, 2500.0);

  ASSERT_TRUE(decoder.feed(
      encode_error_reply(ErrorReply{11, ErrorCode::kShuttingDown}), out));
  const auto e = decode_error_reply(out.back().payload);
  EXPECT_EQ(e.tag, 11u);
  EXPECT_EQ(e.code, ErrorCode::kShuttingDown);
}

TEST(FrameCodec, MalformedPayloadsThrow) {
  // Truncation, trailing bytes, out-of-range enums, oversized device id:
  // every codec failure is a clean SerializationError.
  const auto frame = encode_job_request(JobRequest{"dev-1", 1, 2, 3});
  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  ASSERT_TRUE(decoder.feed(frame, out));
  auto payload = out[0].payload;

  auto truncated = payload;
  truncated.pop_back();
  EXPECT_THROW(decode_job_request(truncated), core::SerializationError);

  auto trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW(decode_job_request(trailing), core::SerializationError);

  // A declared device-id length far past the buffer must be rejected by
  // the bound check, not by attempting a huge copy.
  auto huge_id = payload;
  huge_id[0] = 0xFF;
  huge_id[1] = 0xFF;
  huge_id[2] = 0xFF;
  huge_id[3] = 0x7F;
  EXPECT_THROW(decode_job_request(huge_id), core::SerializationError);

  std::vector<FrameDecoder::Frame> replies;
  FrameDecoder rd;
  ASSERT_TRUE(rd.feed(
      encode_verdict_reply(VerdictReply{1, service::JobOutcome::kAccepted,
                                        core::SessionStatus::kAccepted, 1,
                                        0.0}),
      replies));
  auto bad_outcome = replies[0].payload;
  bad_outcome[8] = 0x77;  // outcome enum out of range
  EXPECT_THROW(decode_verdict_reply(bad_outcome), core::SerializationError);
}

TEST(FrameCodec, DeviceIdBoundHoldsAtEncodeAndDecode) {
  const std::string longest(support::kMaxDeviceIdBytes, 'd');
  const auto frame = encode_job_request(JobRequest{longest, 1, 2, 3});
  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  ASSERT_TRUE(decoder.feed(frame, out));
  EXPECT_EQ(decode_job_request(out[0].payload).device_id, longest);

  // One byte longer: the encoder refuses it...
  const std::string too_long(support::kMaxDeviceIdBytes + 1, 'd');
  EXPECT_THROW(encode_job_request(JobRequest{too_long, 1, 2, 3}),
               std::invalid_argument);
  // ...and a peer that sends it anyway, every byte present, is refused.
  support::ByteWriter payload;
  payload.str(too_long);
  payload.u64(1);
  payload.u64(2);
  payload.u64(3);
  EXPECT_THROW(decode_job_request(payload.take()), core::SerializationError);
}

// --- FrameDecoder stream reassembly ----------------------------------------

std::vector<std::uint8_t> sample_stream(std::size_t frames) {
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < frames; ++i) {
    const auto f = encode_job_request(
        JobRequest{"dev-" + std::to_string(i % 5), i * 31, i * 17, i});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  return stream;
}

TEST(FrameDecoder, ReassemblesAcrossArbitrarySplits) {
  const auto stream = sample_stream(20);

  // Byte-at-a-time: the pathological split.
  FrameDecoder one_byte;
  std::vector<FrameDecoder::Frame> out;
  for (const auto byte : stream) {
    ASSERT_TRUE(one_byte.feed(&byte, 1, out));
  }
  ASSERT_EQ(out.size(), 20u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(decode_job_request(out[i].payload).tag, i);
  }
  EXPECT_EQ(one_byte.buffered(), 0u);

  // Everything coalesced into one read.
  FrameDecoder coalesced;
  out.clear();
  ASSERT_TRUE(coalesced.feed(stream, out));
  EXPECT_EQ(out.size(), 20u);
}

TEST(FrameDecoder, SeededFuzzOverChunkBoundaries) {
  // Random chunk sizes over a long valid stream must always reproduce the
  // exact frame sequence, regardless of where reads land.
  const auto stream = sample_stream(64);
  Xoshiro256pp rng(0xFEED5);
  for (int trial = 0; trial < 50; ++trial) {
    FrameDecoder decoder;
    std::vector<FrameDecoder::Frame> out;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk =
          1 + rng.uniform_u64(std::min<std::size_t>(97, stream.size() - pos));
      ASSERT_TRUE(decoder.feed(stream.data() + pos, chunk, out));
      pos += chunk;
    }
    ASSERT_EQ(out.size(), 64u) << "trial " << trial;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(decode_job_request(out[i].payload).tag, i);
    }
  }
}

TEST(FrameDecoder, TornCrcPoisonsTheStream) {
  auto stream = sample_stream(3);
  stream[stream.size() - 2] ^= 0x40;  // flip a bit in the last frame's CRC
  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  EXPECT_FALSE(decoder.feed(stream, out));
  EXPECT_EQ(out.size(), 2u);  // frames before the tear still decoded
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("CRC"), std::string::npos);

  // Poisoned means poisoned: valid bytes afterwards change nothing.
  const auto good = sample_stream(1);
  EXPECT_FALSE(decoder.feed(good, out));
  EXPECT_EQ(out.size(), 2u);
}

TEST(FrameDecoder, PoisonedStateIsTerminalAndBounded) {
  // Once poisoned, the decoder must stay poisoned with a frozen error and
  // must not keep buffering whatever the peer throws at it afterwards —
  // a poisoned connection is close-pending, not an accumulation vector.
  auto stream = sample_stream(2);
  stream[stream.size() - 2] ^= 0x01;
  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  EXPECT_FALSE(decoder.feed(stream, out));
  ASSERT_TRUE(decoder.failed());
  const std::string first_error = decoder.error();
  const std::size_t buffered = decoder.buffered();

  for (int round = 0; round < 16; ++round) {
    const auto more = sample_stream(3);
    EXPECT_FALSE(decoder.feed(more, out));
    EXPECT_TRUE(decoder.failed());
    EXPECT_EQ(decoder.error(), first_error);  // first cause, never rewritten
    EXPECT_EQ(decoder.buffered(), buffered);  // no growth after poison
  }
  EXPECT_EQ(out.size(), 1u);  // only the frame before the tear
}

TEST(FrameDecoder, BadMagicFailsFast) {
  std::vector<std::uint8_t> garbage = {'G', 'E', 'T', ' ', '/', ' ',
                                       'H', 'T', 'T', 'P', '/', '1'};
  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  EXPECT_FALSE(decoder.feed(garbage, out));
  EXPECT_TRUE(out.empty());
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);

  // A frame that is well formed in every other respect — sane length, CRC
  // recomputed over the altered header — is still refused on its magic.
  auto frame = sample_stream(1);
  frame[0] ^= 0x20;
  const std::size_t crc_at = frame.size() - 4;
  const std::uint32_t crc = core::crc32(frame.data(), crc_at);
  for (int i = 0; i < 4; ++i) {
    frame[crc_at + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  FrameDecoder resealed;
  EXPECT_FALSE(resealed.feed(frame, out));
  EXPECT_TRUE(out.empty());
  EXPECT_NE(resealed.error().find("magic"), std::string::npos);
}

TEST(FrameDecoder, OversizedDeclaredLengthRejectedBeforeBuffering) {
  // Header declares a payload beyond the shared wire bound; the decoder
  // must fail on the header alone, without waiting for (or buffering) the
  // claimed gigabytes.
  std::vector<std::uint8_t> header;
  auto push_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  push_u32(kFrameMagic);
  push_u32(static_cast<std::uint32_t>(MsgType::kJobRequest));
  push_u32(0x40000000u);  // 1 GiB declared payload

  FrameDecoder decoder;
  std::vector<FrameDecoder::Frame> out;
  EXPECT_FALSE(decoder.feed(header, out));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("limit"), std::string::npos);
  EXPECT_LE(decoder.buffered(), header.size());

  // The bound tracks core/serialize's: exactly kMaxWireFrameBytes is fine.
  FrameDecoder at_bound;
  std::vector<std::uint8_t> payload(core::kMaxWireFrameBytes, 0xAB);
  ASSERT_TRUE(at_bound.feed(encode_frame(MsgType::kErrorReply, payload), out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].payload.size(), core::kMaxWireFrameBytes);
}

// --- EventLoop --------------------------------------------------------------

class EventLoopBackends : public ::testing::TestWithParam<EventLoop::Backend> {
};

TEST_P(EventLoopBackends, PostTimerAndSocketEcho) {
  EventLoop loop(GetParam());
#ifdef __linux__
  EXPECT_EQ(loop.using_epoll(), GetParam() != EventLoop::Backend::kPoll);
#else
  EXPECT_FALSE(loop.using_epoll());
#endif

  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  set_nonblocking(pair[0]);
  set_nonblocking(pair[1]);
  Fd a(pair[0]), b(pair[1]);

  std::string received;
  int ticks = 0;
  loop.add(b.get(), EventLoop::kReadable, [&](std::uint32_t events) {
    EXPECT_TRUE(events & EventLoop::kReadable);
    char buf[64];
    const ssize_t n = ::read(b.get(), buf, sizeof(buf));
    if (n > 0) received.assign(buf, static_cast<std::size_t>(n));
  });
  loop.set_timer(1.0, [&] {
    if (++ticks >= 3 && !received.empty()) loop.stop();
  });

  // Cross-thread post() while the loop blocks in the kernel.
  std::thread poster([&] {
    loop.post([&] {
      [[maybe_unused]] const auto n = ::write(a.get(), "ping", 4);
    });
  });
  loop.run();
  poster.join();

  EXPECT_EQ(received, "ping");
  EXPECT_GE(ticks, 3);
}

TEST_P(EventLoopBackends, RemoveDuringDispatchIsSafe) {
  EventLoop loop(GetParam());
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  set_nonblocking(pair[0]);
  set_nonblocking(pair[1]);
  Fd a(pair[0]), b(pair[1]);

  // Both ends readable in the same poll batch; whichever callback runs
  // first removes *both* fds — the other's already-collected event must be
  // discarded via the dead flag, not dispatched or crashed on.
  int fired = 0;
  const auto kill_both = [&](std::uint32_t) {
    ++fired;
    loop.remove(a.get());
    loop.remove(b.get());
    loop.post([&] { loop.stop(); });
  };
  loop.add(a.get(), EventLoop::kReadable, kill_both);
  loop.add(b.get(), EventLoop::kReadable, kill_both);
  ASSERT_EQ(::write(a.get(), "x", 1), 1);
  ASSERT_EQ(::write(b.get(), "x", 1), 1);
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.watched(), 1u);  // only the internal wake pipe remains
}

TEST_P(EventLoopBackends, PollOnceServicesFdsAndTimerWithoutRun) {
  EventLoop loop(GetParam());
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  set_nonblocking(pair[0]);
  set_nonblocking(pair[1]);
  Fd a(pair[0]), b(pair[1]);

  std::string received;
  loop.add(b.get(), EventLoop::kReadable, [&](std::uint32_t) {
    char buf[64];
    const ssize_t n = ::read(b.get(), buf, sizeof(buf));
    if (n > 0) received.assign(buf, static_cast<std::size_t>(n));
  });
  int ticks = 0;
  loop.set_timer(1.0, [&] { ++ticks; });

  // Nothing pending: a zero-timeout poll returns without dispatching.
  loop.poll_once(0);
  EXPECT_TRUE(received.empty());

  // Readable fd is dispatched by a single poll, no run() involved.
  ASSERT_EQ(::write(a.get(), "mid-setup", 9), 9);
  loop.poll_once(0);
  EXPECT_EQ(received, "mid-setup");

  // The timer also fires through poll_once when its period elapses.
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  loop.poll_once(0);
  EXPECT_GE(ticks, 1);

  // And the loop is still fully runnable afterwards.
  loop.post([&] { loop.stop(); });
  loop.run();
}

#ifdef __linux__
INSTANTIATE_TEST_SUITE_P(Backends, EventLoopBackends,
                         ::testing::Values(EventLoop::Backend::kPoll,
                                           EventLoop::Backend::kEpoll));
#else
INSTANTIATE_TEST_SUITE_P(Backends, EventLoopBackends,
                         ::testing::Values(EventLoop::Backend::kPoll));
#endif

// --- server end-to-end ------------------------------------------------------

/// Shared fleet: enrollment is the expensive part, so build once.
const SimFleet& fleet() {
  static const SimFleet instance(3, 0x7E57F1EE7);
  return instance;
}

ResponderFactory fleet_factory() {
  return [](const JobRequest& request) {
    return fleet().responder_for(request.device_id, request.rng_seed);
  };
}

struct RunningServer {
  explicit RunningServer(ServerConfig config)
      : cache(fleet().registry(), fleet().code(), fleet().size()),
        server(cache, fleet_factory(), config),
        thread([this] { server.run(); }) {}

  ~RunningServer() {
    server.stop();
    thread.join();
  }

  service::EmulatorCache cache;
  AttestationServer server;
  std::thread thread;
};

ServerConfig base_config(const Endpoint& endpoint) {
  ServerConfig config;
  config.endpoint = endpoint;
  config.pool.workers = 2;
  config.pool.queue_capacity = 16;
  return config;
}

/// Raw client for adversarial byte-level tests.
struct RawClient {
  explicit RawClient(const Endpoint& endpoint) : fd(connect_to(endpoint)) {}

  /// False when the peer closed underneath us (EPIPE/reset) — expected in
  /// the shedding tests, a failure everywhere a reply is still awaited.
  bool send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd.get(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    return true;
  }

  /// Blocks (with polling) until the peer closes or `frames` arrive.
  std::vector<FrameDecoder::Frame> read_until_close_or(
      std::size_t frames, double timeout_s = 20.0) {
    std::vector<FrameDecoder::Frame> out;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    std::uint8_t buf[4096];
    while (out.size() < frames &&
           std::chrono::steady_clock::now() < deadline) {
      const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
      if (n > 0) {
        decoder.feed(buf, static_cast<std::size_t>(n), out);
        continue;
      }
      if (n == 0) {
        closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      closed = true;
      break;
    }
    return out;
  }

  Fd fd;
  FrameDecoder decoder;
  bool closed = false;
};

void wait_until(const std::function<bool()>& predicate, double timeout_s = 20.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!predicate() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(predicate());
}

TEST(AttestationServerTest, ServesVerdictsOverTcpMatchingInProcessPool) {
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));

  LoadGenConfig lcfg;
  lcfg.endpoint = rs.server.bound_endpoint();
  lcfg.connections = 4;
  lcfg.jobs_per_connection = 3;
  lcfg.devices = fleet().size();
  LoadGenerator gen(lcfg);
  const auto report = gen.run();

  ASSERT_EQ(report.verdicts, report.jobs);
  EXPECT_EQ(report.disconnects, 0u);
  EXPECT_EQ(report.decode_errors, 0u);

  // The same job list through an in-process pool: the wire must add
  // nothing and lose nothing, per tag, bit-exact on the simulated time.
  service::EmulatorCache cache(fleet().registry(), fleet().code(),
                               fleet().size());
  service::PoolConfig pcfg;
  pcfg.workers = 2;
  pcfg.queue_capacity = report.jobs;
  std::mutex mu;
  std::vector<service::JobResult> local(report.jobs);
  service::VerifierPool pool(cache, pcfg, [&](const service::JobResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    local[r.tag] = r;
  });
  for (std::size_t j = 0; j < report.jobs; ++j) {
    const auto request = LoadGenerator::job_for(lcfg, j);
    service::AttestationJob job;
    job.device_id = request.device_id;
    job.responder =
        fleet().responder_for(request.device_id, request.rng_seed);
    job.channel_seed = request.channel_seed;
    job.rng_seed = request.rng_seed;
    job.tag = j;
    ASSERT_TRUE(pool.submit(std::move(job)).enqueued());
  }
  pool.drain();

  for (std::size_t j = 0; j < report.jobs; ++j) {
    ASSERT_TRUE(report.by_job[j].completed) << "job " << j;
    const auto& wire = report.by_job[j].reply;
    EXPECT_EQ(wire.outcome, local[j].outcome) << "job " << j;
    EXPECT_EQ(wire.status, local[j].session.status) << "job " << j;
    EXPECT_EQ(wire.attempts, local[j].session.attempts.size()) << "job " << j;
    EXPECT_EQ(wire.total_us, local[j].session.total_us) << "job " << j;
  }
}

TEST(AttestationServerTest, ServesOverUnixDomainSocket) {
  const std::string path = ::testing::TempDir() + "/pufatt_net_test.sock";
  RunningServer rs(base_config(Endpoint::unix_path(path)));

  LoadGenConfig lcfg;
  lcfg.endpoint = rs.server.bound_endpoint();
  lcfg.connections = 2;
  lcfg.jobs_per_connection = 2;
  lcfg.devices = fleet().size();
  const auto report = LoadGenerator(lcfg).run();
  EXPECT_EQ(report.verdicts, report.jobs);
  EXPECT_GT(report.accepted, 0u);
}

TEST(AttestationServerTest, UnknownDeviceGetsVerdictWithoutPoolWork) {
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));
  RawClient client(rs.server.bound_endpoint());
  client.send(encode_job_request(JobRequest{"intruder-99", 1, 2, 77}));
  const auto replies = client.read_until_close_or(1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, MsgType::kVerdictReply);
  const auto verdict = decode_verdict_reply(replies[0].payload);
  EXPECT_EQ(verdict.tag, 77u);
  EXPECT_EQ(verdict.outcome, service::JobOutcome::kUnknownDevice);
  EXPECT_EQ(rs.server.pool().metrics_snapshot().submitted, 0u);
}

TEST(AttestationServerTest, BusyShedsWithRetryAfterHintUnderOverload) {
  auto config = base_config(Endpoint::tcp("127.0.0.1", 0));
  config.pool.workers = 1;
  config.pool.queue_capacity = 1;  // nearly everything sheds
  RunningServer rs(config);

  LoadGenConfig lcfg;
  lcfg.endpoint = rs.server.bound_endpoint();
  lcfg.connections = 8;
  lcfg.jobs_per_connection = 2;
  lcfg.devices = fleet().size();
  lcfg.max_busy_retries = 10000;
  const auto report = LoadGenerator(lcfg).run();

  // Overload produced busy replies, every one carried a usable hint, and
  // obeying the hints still drove every job to a verdict.
  EXPECT_EQ(report.verdicts, report.jobs);
  EXPECT_GT(report.busy_replies, 0u);
  EXPECT_EQ(report.retries_exhausted, 0u);
  const auto counters = rs.server.counters();
  EXPECT_EQ(counters.busy_replies, report.busy_replies);
  EXPECT_EQ(rs.server.pool().metrics_snapshot().rejected_busy,
            report.busy_replies);
}

TEST(AttestationServerTest, BusyReplyCarriesPositiveHint) {
  auto config = base_config(Endpoint::tcp("127.0.0.1", 0));
  config.pool.workers = 1;
  config.pool.queue_capacity = 1;
  RunningServer rs(config);

  // Saturate with one long-running batch, then observe a raw busy reply.
  RawClient filler(rs.server.bound_endpoint());
  for (int j = 0; j < 8; ++j) {
    filler.send(encode_job_request(
        JobRequest{SimFleet::device_id(0), 100u + j, 200u + j, 1000u + j}));
  }
  const auto replies = filler.read_until_close_or(8);
  ASSERT_EQ(replies.size(), 8u);
  bool saw_busy = false;
  for (const auto& frame : replies) {
    if (frame.type != MsgType::kBusyReply) continue;
    saw_busy = true;
    const auto busy = decode_busy_reply(frame.payload);
    EXPECT_GE(busy.retry_after_us, 0.0);
    EXPECT_GE(busy.tag, 1000u);
  }
  EXPECT_TRUE(saw_busy);
}

TEST(AttestationServerTest, FramingViolationClosesConnection) {
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));
  RawClient client(rs.server.bound_endpoint());
  client.send({0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
               0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C});
  client.read_until_close_or(1, 10.0);
  EXPECT_TRUE(client.closed);
  wait_until([&] { return rs.server.counters().decode_errors >= 1; });
  wait_until([&] { return rs.server.counters().open_connections == 0; });
}

TEST(AttestationServerTest, OversizedDeclaredFrameClosesWithoutBuffering) {
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));
  RawClient client(rs.server.bound_endpoint());
  std::vector<std::uint8_t> header;
  auto push_u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  push_u32(kFrameMagic);
  push_u32(static_cast<std::uint32_t>(MsgType::kJobRequest));
  push_u32(0x7FFFFFFFu);  // 2 GiB declared
  client.send(header);
  client.read_until_close_or(1, 10.0);
  EXPECT_TRUE(client.closed);
  wait_until([&] { return rs.server.counters().decode_errors >= 1; });
}

TEST(AttestationServerTest, CorruptFrameIsNeverAccepted) {
  // A bit-flipped request frame must produce zero dispatched jobs: CRC
  // kills it at the framing layer, whatever byte was hit.
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));
  Xoshiro256pp rng(0xBADF00D);
  for (int trial = 0; trial < 8; ++trial) {
    auto frame = encode_job_request(
        JobRequest{SimFleet::device_id(0), 1, 2, 3});
    const auto bit = rng.uniform_u64(frame.size() * 8);
    frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    RawClient client(rs.server.bound_endpoint());
    client.send(frame);
    // A flip in the length field can leave the server legitimately waiting
    // for more bytes; the short timeout falls through to the client-side
    // close, which ends the connection either way.
    client.read_until_close_or(1, 1.5);
  }
  wait_until([&] { return rs.server.counters().closed >= 8; });
  EXPECT_EQ(rs.server.counters().requests, 0u);
  EXPECT_EQ(rs.server.pool().metrics_snapshot().submitted, 0u);
}

TEST(AttestationServerTest, SlowlorisClientIsEvicted) {
  auto config = base_config(Endpoint::tcp("127.0.0.1", 0));
  config.idle_timeout_ms = 60.0;
  RunningServer rs(config);

  // Drip one header byte, then stall forever.
  RawClient client(rs.server.bound_endpoint());
  client.send({0x54});  // first magic byte only ("PANT" is little-endian)
  client.read_until_close_or(1, 20.0);
  EXPECT_TRUE(client.closed);
  wait_until([&] { return rs.server.counters().idle_evicted >= 1; });
  wait_until([&] { return rs.server.counters().open_connections == 0; });
  // An eviction is a close, never a decode error.
  EXPECT_EQ(rs.server.counters().decode_errors, 0u);
}

TEST(AttestationServerTest, MidStreamDisconnectLeaksNothing) {
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));
  for (int i = 0; i < 8; ++i) {
    RawClient client(rs.server.bound_endpoint());
    const auto frame = encode_job_request(
        JobRequest{SimFleet::device_id(0), 5, 6, 7});
    // Half a frame, then vanish.
    client.send({frame.begin(), frame.begin() + 7});
  }
  wait_until([&] { return rs.server.counters().closed >= 8; });
  wait_until([&] { return rs.server.counters().open_connections == 0; });
  const auto counters = rs.server.counters();
  EXPECT_EQ(counters.accepted, 8u);
  EXPECT_EQ(counters.requests, 0u);
  EXPECT_EQ(counters.decode_errors, 0u);  // truncation is a close, not corruption
}

TEST(AttestationServerTest, WriteQueueCapShedsUnreadingClient) {
  // A Unix socket keeps the kernel's buffering small and fixed, so a
  // client that sends jobs but never reads verdicts backs the socket up
  // quickly; once a reply fails to flush it must queue, and with a
  // 16-byte cap even one queued verdict overflows -> shed.
  const std::string path = ::testing::TempDir() + "/pufatt_net_shed.sock";
  auto config = base_config(Endpoint::unix_path(path));
  config.max_write_queue_bytes = 16;  // a single verdict cannot fit
  RunningServer rs(config);

  RawClient client(rs.server.bound_endpoint());
  const auto frame = encode_job_request(JobRequest{"intruder", 1, 2, 3});
  for (int burst = 0; burst < 65536; ++burst) {
    if (!client.send(frame)) break;  // server already shed us
    if (rs.server.counters().writeq_shed >= 1) break;
  }
  wait_until([&] { return rs.server.counters().writeq_shed >= 1; });
  wait_until([&] { return rs.server.counters().open_connections == 0; });
}

TEST(AttestationServerTest, AdversarialChunkingFuzzEndToEnd) {
  // Seeded storm: every connection sends a valid 2-job stream but chunked
  // adversarially; some also append garbage.  The server must answer every
  // intact job and close every poisoned stream — and never block or leak.
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));
  Xoshiro256pp rng(0x57F);
  std::size_t expected_verdicts = 0;

  for (int c = 0; c < 12; ++c) {
    std::vector<std::uint8_t> stream;
    for (int j = 0; j < 2; ++j) {
      const auto f = encode_job_request(JobRequest{
          SimFleet::device_id(rng.uniform_u64(fleet().size())),
          rng.next(), rng.next(), static_cast<std::uint64_t>(j)});
      stream.insert(stream.end(), f.begin(), f.end());
    }

    RawClient client(rs.server.bound_endpoint());
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk =
          1 + rng.uniform_u64(std::min<std::size_t>(33, stream.size() - pos));
      ASSERT_TRUE(client.send(
          {stream.begin() + pos, stream.begin() + pos + chunk}));
      pos += chunk;
    }
    const auto replies = client.read_until_close_or(2);
    EXPECT_EQ(replies.size(), 2u);
    expected_verdicts += 2;
    if (rng.bernoulli(0.3)) {
      // Poison the stream only after both verdicts came back — a framing
      // violation closes the connection immediately, and we want the
      // verdicts counted, not raced against the close.  A full header's
      // worth of garbage: the decoder (correctly) withholds judgement on
      // fewer than kFrameHeaderBytes.
      client.send(std::vector<std::uint8_t>(kFrameHeaderBytes, 0xFF));
      client.read_until_close_or(3, 10.0);
      EXPECT_TRUE(client.closed);
    }
  }
  wait_until([&] {
    return rs.server.counters().verdicts_sent >= expected_verdicts;
  });
  wait_until([&] { return rs.server.counters().open_connections == 0; });
}

TEST(AttestationServerTest, CountersAndSpansCoverThePipeline) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  auto config = base_config(Endpoint::tcp("127.0.0.1", 0));
  config.tracer = &tracer;
  config.pool.tracer = &tracer;
  RunningServer rs(config);

  LoadGenConfig lcfg;
  lcfg.endpoint = rs.server.bound_endpoint();
  lcfg.connections = 2;
  lcfg.jobs_per_connection = 2;
  lcfg.devices = fleet().size();
  const auto report = LoadGenerator(lcfg).run();
  ASSERT_EQ(report.verdicts, report.jobs);

  wait_until([&] { return rs.server.counters().verdicts_sent >= 4; });
  const auto counters = rs.server.counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.requests, 4u);
  EXPECT_GE(counters.frames_in, 4u);
  EXPECT_GT(counters.bytes_in, 0u);
  EXPECT_GT(counters.bytes_out, 0u);

  // Span delivery needs the hooks compiled in; the build-notrace tree
  // still runs the counter assertions above (see tests/obs_test.cpp).
  if (!obs::kTraceCompiled) return;
  const auto records = tracer.records();
  auto has = [&](const char* name) {
    for (const auto& rec : records) {
      if (std::string(rec.name) == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("net.accept"));
  EXPECT_TRUE(has("net.read"));
  EXPECT_TRUE(has("net.reply"));
  EXPECT_TRUE(has("pool.job"));  // the verify stage, same trace
}

TEST(AttestationServerTest, FaultScheduleLeavesCountersExactlyConsistent) {
  // A deterministic schedule of good frames and injected faults, one
  // connection at a time; afterwards every NetCounter must equal the
  // arithmetic of the schedule — no double counting, no missed paths.
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));

  enum class Fault { kUnknownType, kMalformedJob, kCrcTear, kMalformedStats };
  struct Step {
    std::size_t goods;
    Fault fault;
  };
  const Step schedule[] = {
      {2, Fault::kUnknownType},    {1, Fault::kUnknownType},
      {3, Fault::kUnknownType},    {0, Fault::kMalformedJob},
      {2, Fault::kMalformedJob},   {1, Fault::kCrcTear},
      {0, Fault::kCrcTear},        {0, Fault::kMalformedStats},
  };

  std::size_t total_goods = 0, rejected = 0, torn = 0;
  for (const auto& step : schedule) {
    RawClient client(rs.server.bound_endpoint());
    for (std::size_t g = 0; g < step.goods; ++g) {
      ASSERT_TRUE(client.send(encode_job_request(
          JobRequest{SimFleet::device_id(0), 10u + g, 20u + g, g})));
    }
    // Drain the verdicts first so the fault's close cannot race them.
    if (step.goods > 0) {
      const auto replies = client.read_until_close_or(step.goods);
      ASSERT_EQ(replies.size(), step.goods);
      for (const auto& reply : replies) {
        ASSERT_EQ(reply.type, MsgType::kVerdictReply);
      }
      total_goods += step.goods;
    }
    switch (step.fault) {
      case Fault::kUnknownType:
        client.send(encode_frame(static_cast<MsgType>(99), {0x00}));
        ++rejected;
        break;
      case Fault::kMalformedJob:
        client.send(encode_frame(MsgType::kJobRequest, {0xFF, 0xFF}));
        ++rejected;
        break;
      case Fault::kCrcTear: {
        auto frame = encode_job_request(JobRequest{"dev-x", 1, 2, 3});
        frame[frame.size() - 1] ^= 0x10;
        client.send(frame);
        ++torn;
        break;
      }
      case Fault::kMalformedStats:
        client.send(encode_frame(MsgType::kStatsRequest, {0x01, 0x02, 0x03}));
        ++rejected;
        break;
    }
    // Ask for more frames than can arrive: loops until the server's close
    // lands (error-reply faults deliver one frame first, tears deliver
    // none — both end in a close).
    client.read_until_close_or(2, 10.0);
    EXPECT_TRUE(client.closed);
  }

  const std::size_t connections = std::size(schedule);
  wait_until([&] { return rs.server.counters().closed >= connections; });
  const auto counters = rs.server.counters();
  EXPECT_EQ(counters.accepted, connections);
  EXPECT_EQ(counters.closed, connections);
  EXPECT_EQ(counters.open_connections, 0u);
  EXPECT_EQ(counters.requests, total_goods);
  EXPECT_EQ(counters.verdicts_sent, total_goods);
  // Structurally valid frames all dispatched; CRC tears never got that far.
  EXPECT_EQ(counters.frames_in, total_goods + rejected);
  EXPECT_EQ(counters.frames_rejected, rejected);
  EXPECT_EQ(counters.payload_errors, rejected);
  EXPECT_EQ(counters.error_replies, rejected);
  EXPECT_EQ(counters.decode_errors, torn);
  // The sequential schedule never overloads or backs up a socket.
  EXPECT_EQ(counters.busy_replies, 0u);
  EXPECT_EQ(counters.replies_dropped, 0u);
  EXPECT_EQ(counters.writeq_shed, 0u);
  EXPECT_EQ(counters.stats_served, 0u);  // the stats fault never served
}

// --- live telemetry ---------------------------------------------------------

TEST(AttestationServerTest, StatsFrameServedInlineOnOpenConnection) {
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));
  RawClient client(rs.server.bound_endpoint());

  // Two polls over one connection: the stats frame must not close it.
  for (std::uint64_t poll = 0; poll < 2; ++poll) {
    ASSERT_TRUE(client.send(encode_stats_request(StatsRequest{100 + poll})));
    const auto replies = client.read_until_close_or(1);
    ASSERT_EQ(replies.size(), 1u);
    ASSERT_EQ(replies.back().type, MsgType::kStatsReply);
    const auto reply = decode_stats_reply(replies.back().payload);
    EXPECT_EQ(reply.tag, 100 + poll);

    const auto doc = obs::parse_json(reply.stats_json);
    const auto* net = doc.get("net");
    const auto* pool = doc.get("pool");
    ASSERT_NE(net, nullptr);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(net->number_or("open_connections", -1.0), 1.0);
    EXPECT_EQ(net->number_or("stats_served", -1.0),
              static_cast<double>(poll));  // snapshot precedes its own count
    EXPECT_EQ(pool->number_or("workers", -1.0), 2.0);
    EXPECT_EQ(pool->number_or("queue_capacity", -1.0), 16.0);
  }
  EXPECT_FALSE(client.closed);
  EXPECT_EQ(rs.server.counters().stats_served, 2u);

  // Byte stability: at quiesce the only counters that move between two
  // consecutive snapshots are the ones the polling itself drives (frame
  // and byte totals, stats_served).  With those scrubbed, the
  // serialization must be byte-identical — deterministic key order and
  // formatting, the contract scripted consumers rely on.
  ASSERT_TRUE(client.send(encode_stats_request(StatsRequest{200})));
  ASSERT_TRUE(client.send(encode_stats_request(StatsRequest{201})));
  const auto replies = client.read_until_close_or(2);
  ASSERT_EQ(replies.size(), 2u);
  auto a = decode_stats_reply(replies[0].payload).stats_json;
  auto b = decode_stats_reply(replies[1].payload).stats_json;
  const auto scrub = [](std::string& json) {
    for (const char* key :
         {"\"bytes_in\":", "\"bytes_out\":", "\"frames_in\":",
          "\"stats_served\":"}) {
      const auto pos = json.find(key);
      ASSERT_NE(pos, std::string::npos) << key;
      auto end = json.find_first_of(",}", pos);
      if (json[end] == ',') ++end;  // take the separator with the field
      json.erase(pos, end - pos);
    }
  };
  scrub(a);
  scrub(b);
  EXPECT_EQ(a, b);
}

TEST(AttestationServerTest, StatsServedMidLoadCausesZeroVerdictDivergence) {
  // An operator polling fleet-stats while the fleet is under load must
  // never perturb a verdict: same count, no decode errors, no drops.
  RunningServer rs(base_config(Endpoint::tcp("127.0.0.1", 0)));

  LoadGenConfig lcfg;
  lcfg.endpoint = rs.server.bound_endpoint();
  lcfg.connections = 4;
  lcfg.jobs_per_connection = 4;
  lcfg.devices = fleet().size();
  LoadGenReport report;
  std::thread load([&] { report = LoadGenerator(lcfg).run(); });

  RawClient poller(rs.server.bound_endpoint());
  std::size_t polls = 0;
  double last_accepted = 0.0;
  for (; polls < 64; ++polls) {
    if (!poller.send(encode_stats_request(StatsRequest{polls}))) break;
    const auto replies = poller.read_until_close_or(1);
    if (replies.size() != 1) break;
    const auto reply = decode_stats_reply(replies.back().payload);
    EXPECT_EQ(reply.tag, polls);
    const auto doc = obs::parse_json(reply.stats_json);
    const auto* pool = doc.get("pool");
    ASSERT_NE(pool, nullptr);
    // Monotone under concurrent load: a snapshot never goes backwards.
    const double accepted = pool->number_or("accepted", -1.0);
    EXPECT_GE(accepted, last_accepted);
    last_accepted = accepted;
    if (rs.server.counters().verdicts_sent >= lcfg.connections *
                                                  lcfg.jobs_per_connection) {
      break;
    }
  }
  load.join();

  EXPECT_EQ(report.verdicts, report.jobs);
  EXPECT_EQ(report.decode_errors, 0u);
  EXPECT_EQ(report.disconnects, 0u);
  EXPECT_GE(rs.server.counters().stats_served, 1u);
  EXPECT_EQ(rs.server.counters().replies_dropped, 0u);
}

}  // namespace
}  // namespace pufatt::net

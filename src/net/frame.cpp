#include "net/frame.hpp"

namespace pufatt::net {

namespace {

using core::SerializationError;
using support::ByteWriter;
using support::load_le32;
using support::load_le64;

using Payload = support::ByteReader<SerializationError>;
constexpr const char* kTruncated = "message payload truncated";
constexpr const char* kTrailing = "message payload has trailing bytes";

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kJobRequest:
      return "job_request";
    case MsgType::kVerdictReply:
      return "verdict_reply";
    case MsgType::kBusyReply:
      return "busy_reply";
    case MsgType::kErrorReply:
      return "error_reply";
    case MsgType::kStatsRequest:
      return "stats_request";
    case MsgType::kStatsReply:
      return "stats_reply";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_frame(MsgType type,
                                       const std::vector<std::uint8_t>& payload,
                                       const TraceContext& trace) {
  const std::size_t ctx_bytes = trace.traced() ? kTraceContextBytes : 0;
  ByteWriter out(kFrameOverheadBytes + ctx_bytes + payload.size());
  out.u32(kFrameMagic);
  out.u32(static_cast<std::uint32_t>(type) |
          (trace.traced() ? kFrameTracedBit : 0u));
  out.u32(static_cast<std::uint32_t>(ctx_bytes + payload.size()));
  if (trace.traced()) {
    out.u64(trace.trace_id);
    out.u64(trace.span_id);
  }
  out.raw(payload.data(), payload.size());
  out.u32(core::crc32(out.data(), out.size()));
  return out.take();
}

std::vector<std::uint8_t> encode_job_request(const JobRequest& msg,
                                             const TraceContext& trace) {
  support::check_device_id(msg.device_id, "encode_job_request");
  ByteWriter payload(4 + msg.device_id.size() + 24);
  payload.str(msg.device_id);
  payload.u64(msg.channel_seed);
  payload.u64(msg.rng_seed);
  payload.u64(msg.tag);
  return encode_frame(MsgType::kJobRequest, payload.take(), trace);
}

std::vector<std::uint8_t> encode_verdict_reply(const VerdictReply& msg,
                                               const TraceContext& trace) {
  ByteWriter payload(28);
  payload.u64(msg.tag);
  payload.u32(static_cast<std::uint32_t>(msg.outcome));
  payload.u32(static_cast<std::uint32_t>(msg.status));
  payload.u32(msg.attempts);
  payload.f64(msg.total_us);
  return encode_frame(MsgType::kVerdictReply, payload.take(), trace);
}

std::vector<std::uint8_t> encode_busy_reply(const BusyReply& msg,
                                            const TraceContext& trace) {
  ByteWriter payload(16);
  payload.u64(msg.tag);
  payload.f64(msg.retry_after_us);
  return encode_frame(MsgType::kBusyReply, payload.take(), trace);
}

std::vector<std::uint8_t> encode_stats_request(const StatsRequest& msg) {
  ByteWriter payload(8);
  payload.u64(msg.tag);
  return encode_frame(MsgType::kStatsRequest, payload.take());
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& msg) {
  ByteWriter payload(12 + msg.stats_json.size());
  payload.u64(msg.tag);
  payload.str(msg.stats_json);
  return encode_frame(MsgType::kStatsReply, payload.take());
}

std::vector<std::uint8_t> encode_error_reply(const ErrorReply& msg) {
  ByteWriter payload(12);
  payload.u64(msg.tag);
  payload.u32(static_cast<std::uint32_t>(msg.code));
  return encode_frame(MsgType::kErrorReply, payload.take());
}

JobRequest decode_job_request(const std::vector<std::uint8_t>& payload) {
  Payload cur(payload, kTruncated);
  JobRequest msg;
  msg.device_id =
      cur.str(support::kMaxDeviceIdBytes, "device id exceeds wire limit");
  msg.channel_seed = cur.u64();
  msg.rng_seed = cur.u64();
  msg.tag = cur.u64();
  cur.expect_end(kTrailing);
  return msg;
}

VerdictReply decode_verdict_reply(const std::vector<std::uint8_t>& payload) {
  Payload cur(payload, kTruncated);
  VerdictReply msg;
  msg.tag = cur.u64();
  const std::uint32_t outcome = cur.u32();
  if (outcome > static_cast<std::uint32_t>(service::JobOutcome::kUnknownDevice)) {
    throw SerializationError("verdict outcome out of range");
  }
  msg.outcome = static_cast<service::JobOutcome>(outcome);
  const std::uint32_t status = cur.u32();
  if (status > static_cast<std::uint32_t>(core::SessionStatus::kRetriesExhausted)) {
    throw SerializationError("session status out of range");
  }
  msg.status = static_cast<core::SessionStatus>(status);
  msg.attempts = cur.u32();
  msg.total_us = cur.f64();
  cur.expect_end(kTrailing);
  return msg;
}

BusyReply decode_busy_reply(const std::vector<std::uint8_t>& payload) {
  Payload cur(payload, kTruncated);
  BusyReply msg;
  msg.tag = cur.u64();
  msg.retry_after_us = cur.f64();
  cur.expect_end(kTrailing);
  return msg;
}

ErrorReply decode_error_reply(const std::vector<std::uint8_t>& payload) {
  Payload cur(payload, kTruncated);
  ErrorReply msg;
  msg.tag = cur.u64();
  const std::uint32_t code = cur.u32();
  if (code < 1 ||
      code > static_cast<std::uint32_t>(ErrorCode::kShuttingDown)) {
    throw SerializationError("error code out of range");
  }
  msg.code = static_cast<ErrorCode>(code);
  cur.expect_end(kTrailing);
  return msg;
}

StatsRequest decode_stats_request(const std::vector<std::uint8_t>& payload) {
  Payload cur(payload, kTruncated);
  StatsRequest msg;
  msg.tag = cur.u64();
  cur.expect_end(kTrailing);
  return msg;
}

StatsReply decode_stats_reply(const std::vector<std::uint8_t>& payload) {
  Payload cur(payload, kTruncated);
  StatsReply msg;
  msg.tag = cur.u64();
  msg.stats_json =
      cur.str(core::kMaxWireFrameBytes, "stats JSON exceeds wire limit");
  cur.expect_end(kTrailing);
  return msg;
}

bool FrameDecoder::fail(const char* why) {
  failed_ = true;
  error_ = why;
  return false;
}

bool FrameDecoder::feed(const std::uint8_t* data, std::size_t size,
                        std::vector<Frame>& out) {
  if (failed_) return false;
  buffer_.insert(buffer_.end(), data, data + size);

  for (;;) {
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < kFrameHeaderBytes) break;

    const std::uint8_t* head = buffer_.data() + consumed_;
    if (load_le32(head) != kFrameMagic) {
      return fail("bad frame magic (stream desynchronized)");
    }
    const std::uint32_t len = load_le32(head + 8);
    // The declared length is still untrusted here: bound it before it
    // influences how much we are willing to buffer for this frame.
    if (len > max_payload_) {
      return fail("declared payload exceeds frame limit");
    }
    const std::size_t frame_bytes = kFrameOverheadBytes + len;
    if (avail < frame_bytes) break;  // wait for the rest

    const std::uint32_t stored_crc = load_le32(head + kFrameHeaderBytes + len);
    if (core::crc32(head, kFrameHeaderBytes + len) != stored_crc) {
      return fail("frame CRC mismatch");
    }

    const std::uint32_t type_word = load_le32(head + 4);
    Frame frame;
    frame.type = static_cast<MsgType>(type_word & ~kFrameTracedBit);
    std::size_t body_off = kFrameHeaderBytes;
    std::size_t body_len = len;
    if ((type_word & kFrameTracedBit) != 0) {
      // The traced flag promises 16 context bytes inside the payload
      // region; a shorter declared length lied about the bytes it covers
      // and is handled like every other bound violation: poison.
      if (len < kTraceContextBytes) {
        return fail("traced frame shorter than its trace context");
      }
      frame.trace.trace_id = load_le64(head + kFrameHeaderBytes);
      frame.trace.span_id = load_le64(head + kFrameHeaderBytes + 8);
      body_off += kTraceContextBytes;
      body_len -= kTraceContextBytes;
    }
    frame.payload.assign(head + body_off, head + body_off + body_len);
    out.push_back(std::move(frame));
    consumed_ += frame_bytes;
  }

  // Compact once the decoded prefix dominates the buffer, so a long-lived
  // connection's buffer does not grow with total traffic.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return true;
}

}  // namespace pufatt::net

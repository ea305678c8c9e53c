#include "core/session.hpp"

#include <cmath>
#include <stdexcept>

#include "core/serialize.hpp"

namespace pufatt::core {

const char* to_string(SessionStatus status) {
  switch (status) {
    case SessionStatus::kAccepted: return "accepted";
    case SessionStatus::kRejected: return "rejected";
    case SessionStatus::kTimeout: return "timeout";
    case SessionStatus::kTransportCorrupted: return "transport corrupted";
    case SessionStatus::kRetriesExhausted: return "retries exhausted";
  }
  return "?";
}

std::optional<VerifyStatus> SessionOutcome::last_verify() const {
  for (auto it = attempts.rbegin(); it != attempts.rend(); ++it) {
    if (it->verify) return it->verify;
  }
  return std::nullopt;
}

AttestationSession::AttestationSession(const Verifier& verifier,
                                       FaultyChannel& channel,
                                       const SessionPolicy& policy)
    : verifier_(&verifier), channel_(&channel), policy_(policy) {
  if (policy.max_attempts == 0) {
    throw std::invalid_argument("AttestationSession: zero attempts");
  }
  if (policy.response_timeout_us <= 0.0 || policy.backoff_base_us < 0.0 ||
      policy.backoff_factor < 1.0 || policy.backoff_jitter < 0.0 ||
      policy.backoff_jitter > 1.0) {
    throw std::invalid_argument("AttestationSession: bad policy");
  }
}

SessionOutcome AttestationSession::run(const Responder& responder,
                                       support::Xoshiro256pp& rng,
                                       const obs::TraceScope& trace) {
  obs::Span run_span = trace.span("session.run");
  SessionOutcome out = run_impl(responder, rng, run_span);
  if (run_span.active()) {
    run_span.note("attempts", static_cast<double>(out.attempts.size()));
    run_span.note("total_us", out.total_us);
    run_span.note("status", static_cast<double>(out.status));
  }
  return out;
}

SessionOutcome AttestationSession::run_impl(const Responder& responder,
                                            support::Xoshiro256pp& rng,
                                            obs::Span& run_span) {
  SessionOutcome out;
  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    obs::Span attempt_span = run_span.child("session.attempt");
    AttemptRecord rec;
    // Everything the δ argument and the fault model produced for this
    // attempt, flushed onto the span at every exit below.
    std::uint64_t flips = 0;
    double deadline_us = -1.0;
    const auto note_attempt = [&] {
      if (!attempt_span.active()) return;
      attempt_span.note("backoff_us", rec.backoff_us);
      attempt_span.note("elapsed_us", rec.elapsed_us);
      attempt_span.note("flips", static_cast<double>(flips));
      attempt_span.note("delivered", rec.response_delivered ? 1.0 : 0.0);
      if (deadline_us >= 0.0) attempt_span.note("deadline_us", deadline_us);
      if (rec.verify) {
        attempt_span.note("verify", static_cast<double>(*rec.verify));
      }
    };
    if (attempt > 0) {
      const double nominal =
          policy_.backoff_base_us *
          std::pow(policy_.backoff_factor, static_cast<double>(attempt - 1));
      rec.backoff_us =
          nominal * (1.0 + policy_.backoff_jitter * (2.0 * rng.uniform() - 1.0));
      out.total_us += rec.backoff_us;
    }

    // Fresh nonce per attempt: the time bound is per-challenge.
    const AttestationRequest request = verifier_->make_request(rng);
    rec.nonce = request.nonce;

    auto request_frame = serialize_request(request);
    const auto request_delivery =
        channel_->transmit(request_frame, sizeof(request.nonce));
    bool request_ok = request_delivery.delivered;
    flips += request_delivery.bits_flipped;
    if (request_ok) {
      // A corrupted request fails the prover's CRC and is discarded there:
      // from the verifier's side it is indistinguishable from a loss.
      try {
        (void)deserialize_request(request_frame);
      } catch (const SerializationError&) {
        rec.request_corrupted = true;
        request_ok = false;
      }
    }
    rec.request_delivered = request_ok;
    if (!request_ok) {
      rec.elapsed_us = policy_.response_timeout_us;
      out.total_us += policy_.response_timeout_us;
      out.attempts.push_back(rec);
      note_attempt();
      continue;
    }

    const ProverReply reply = responder(request);
    const std::size_t wire_bytes = reply.response.wire_bytes();
    auto response_frame = serialize_response(reply.response);
    const auto response_delivery = channel_->transmit(response_frame, wire_bytes);
    flips += response_delivery.bits_flipped;
    double elapsed = request_delivery.transfer_us + reply.compute_us +
                     (response_delivery.delivered
                          ? response_delivery.transfer_us
                          : 0.0);
    if (!response_delivery.delivered ||
        !(0.0 <= elapsed && elapsed <= policy_.response_timeout_us)) {
      // Lost, or arrived after the verifier stopped listening (a NaN or
      // negative time counts as never arriving).
      rec.elapsed_us = policy_.response_timeout_us;
      out.total_us += policy_.response_timeout_us;
      out.attempts.push_back(rec);
      note_attempt();
      continue;
    }
    rec.response_delivered = true;
    rec.elapsed_us = elapsed;
    out.total_us += elapsed;

    AttestationResponse received;
    try {
      received = deserialize_response(response_frame);
    } catch (const SerializationError&) {
      // Transport fault, not evidence: retry.
      rec.response_corrupted = true;
      out.attempts.push_back(rec);
      note_attempt();
      continue;
    }

    const VerifyResult result = verifier_->verify(request, received, elapsed);
    rec.verify = result.status;
    deadline_us = result.deadline_us;
    out.attempts.push_back(rec);
    note_attempt();
    if (result.accepted()) {
      out.status = SessionStatus::kAccepted;
      return out;
    }
    if (result.status == VerifyStatus::kTimeExceeded &&
        policy_.retry_time_exceeded && attempt + 1 < policy_.max_attempts) {
      continue;  // may be jitter; retry under a fresh per-attempt deadline
    }
    // An intact frame that fails verification is definitive evidence.
    out.status = SessionStatus::kRejected;
    return out;
  }

  // The retry budget ran out without a verdict in hand... unless the last
  // attempts were verified kTimeExceeded, which is still a rejection.
  if (out.last_verify()) {
    out.status = SessionStatus::kRejected;
    return out;
  }
  bool all_silence = true;
  bool all_corrupt = true;
  for (const auto& rec : out.attempts) {
    if (rec.request_corrupted || rec.response_corrupted) {
      all_silence = false;
    } else {
      all_corrupt = false;
    }
  }
  if (all_silence) {
    out.status = SessionStatus::kTimeout;
  } else if (all_corrupt) {
    out.status = SessionStatus::kTransportCorrupted;
  } else {
    out.status = SessionStatus::kRetriesExhausted;
  }
  return out;
}

}  // namespace pufatt::core

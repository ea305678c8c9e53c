#include "probe.hpp"

#include <malloc.h>

#include <cmath>
#include <memory>

#include "core/puf_adapter.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pufatt;

namespace {

/// Verifier's default whole-transcript budget (average weighted
/// reconstruction distance per PUF call, ps).  Not readable through the
/// Verifier API; a change there shows up as a probe/verify status mismatch.
constexpr double kMaxAvgWeightedPs = 36.0;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

LayerProbe::LayerProbe(const core::EnrollmentRecord& record,
                       const ecc::BinaryCode& code)
    : verifier_(record, code),
      emulator_(record.profile.puf_config.width, record.model, code,
                record.profile.puf_config.layout),
      helper_(code),
      obfuscation_(record.profile.puf_config.width,
                   alupuf::ObfuscationNetwork::Pairing::kHardened) {}

core::VerifyStatus LayerProbe::verify(const core::AttestationRequest& request,
                                      const core::AttestationResponse& response,
                                      double elapsed_us, LayerTimes& times) {
  const auto& record = verifier_.record();
  std::vector<Call> calls;
  calls.reserve(record.profile.swat.rounds / record.profile.swat.puf_interval);

  const auto start = Clock::now();
  core::VerifyStatus status = core::VerifyStatus::kAccepted;
  swat::ChecksumResult expected;
  if (elapsed_us > verifier_.deadline_us(response)) {
    status = core::VerifyStatus::kTimeExceeded;
  } else {
    std::size_t cursor = 0;
    double total_weighted_ps = 0.0;
    const auto query = core::emulator_query(emulator_, response.helper_words,
                                            cursor, &total_weighted_ps);
    const swat::PufQuery timed =
        [&](const std::array<std::uint64_t, 8>& challenges) {
          const auto a = Clock::now();
          const auto z = query(challenges);
          times.emulate_us += micros_between(a, Clock::now());
          calls.push_back(Call{challenges, z});
          return z;
        };
    expected = swat::compute_checksum(record.enrolled_image,
                                      core::seed_from_nonce(request.nonce),
                                      record.profile.swat, timed);
    if (!expected.ok) {
      status = core::VerifyStatus::kPufReconstructionFailed;
    } else if (expected.puf_calls > 0 &&
               total_weighted_ps >
                   kMaxAvgWeightedPs * static_cast<double>(expected.puf_calls)) {
      status = core::VerifyStatus::kPufReconstructionFailed;
    } else if (cursor != response.helper_words.size()) {
      status = core::VerifyStatus::kPufReconstructionFailed;
    } else {
      status = expected.state == response.checksum
                   ? core::VerifyStatus::kAccepted
                   : core::VerifyStatus::kChecksumMismatch;
    }
  }
  times.verify_us += micros_between(start, Clock::now());
  ++times.verdicts;
  times.puf_calls += calls.size();
  if (!calls.empty() && !expected.ok) {
    ++times.early_rejects;
    times.reject_call_sum += calls.size();
  }
  if (!calls.empty()) replay(calls, request, response, expected, times);
  return status;
}

void LayerProbe::replay(const std::vector<Call>& calls,
                        const core::AttestationRequest& request,
                        const core::AttestationResponse& response,
                        const swat::ChecksumResult& expected,
                        LayerTimes& times) {
  const auto& engine = emulator_.raw_emulator();
  const std::size_t width = engine.response_bits();
  const std::size_t helper_bits = emulator_.helper_bits();
  std::vector<double> soft;
  std::vector<double> llr(width);

  for (std::size_t c = 0; c < calls.size(); ++c) {
    const std::size_t base = c * 8;
    if (base + 8 > response.helper_words.size()) {
      // Transcript exhausted: emulator_query gave up before emulating.
      require(!calls[c].z, "probe: replay of a call past the transcript");
      continue;
    }
    std::array<alupuf::Challenge, 8> raw;
    for (std::size_t r = 0; r < 8; ++r) {
      raw[r] = core::challenge_from_u64(calls[c].challenges[r]);
    }
    auto t = Clock::now();
    engine.eval_soft_batch(raw.data(), raw.size(), soft);
    times.soft_batch_us += micros_between(t, Clock::now());
    ++times.soft_batches;

    std::array<support::BitVector, 8> reconstructed;
    std::size_t distance = 0;
    double weighted = 0.0;
    bool decoded = true;
    for (std::size_t r = 0; r < 8; ++r) {
      std::copy(soft.begin() + r * width, soft.begin() + (r + 1) * width,
                llr.begin());
      const auto helper =
          core::helper_from_word(response.helper_words[base + r], helper_bits);
      t = Clock::now();
      const auto y = helper_.reproduce_soft(llr, helper);
      times.reproduce_soft_us += micros_between(t, Clock::now());
      ++times.responses;
      if (!y) {
        decoded = false;
        break;
      }
      for (std::size_t i = 0; i < width; ++i) {
        if (y->get(i) != (llr[i] < 0.0)) {
          ++distance;
          weighted += std::abs(llr[i]);
        }
      }
      reconstructed[r] = *y;
    }
    std::optional<std::uint32_t> z;
    if (decoded && distance <= emulator_.max_call_distance() &&
        weighted <= emulator_.max_weighted_distance()) {
      t = Clock::now();
      const auto out = obfuscation_.obfuscate(reconstructed);
      times.obfuscate_us += micros_between(t, Clock::now());
      ++times.obfuscations;
      z = static_cast<std::uint32_t>(out.to_u64());
    }
    require(z == calls[c].z, "probe: layer replay disagrees with emulate_raw");
  }

  // The checksum alone: the same rounds with the PUF answers fed back.
  std::size_t next = 0;
  const swat::PufQuery replayed =
      [&](const std::array<std::uint64_t, 8>&) -> std::optional<std::uint32_t> {
    return next < calls.size() ? calls[next++].z : std::nullopt;
  };
  const auto& record = verifier_.record();
  const auto t = Clock::now();
  const auto again = swat::compute_checksum(
      record.enrolled_image, core::seed_from_nonce(request.nonce),
      record.profile.swat, replayed);
  times.checksum_self_us += micros_between(t, Clock::now());
  require(again.ok == expected.ok && again.state == expected.state,
          "probe: checksum replay disagrees with the verify");
}

void fill_probe_layers(const LayerTimes& t, Layers& l) {
  const double verdicts = static_cast<double>(t.verdicts);
  l.timingsim_soft_batch_us =
      ratio(t.soft_batch_us, static_cast<double>(t.soft_batches));
  l.ecc_reproduce_soft_us =
      ratio(t.reproduce_soft_us, static_cast<double>(t.responses));
  l.alupuf_emulate_us = ratio(t.emulate_us, static_cast<double>(t.puf_calls));
  l.alupuf_obfuscate_us =
      ratio(t.obfuscate_us, static_cast<double>(t.obfuscations));
  l.alupuf_calls_per_verdict = ratio(static_cast<double>(t.puf_calls), verdicts);
  l.alupuf_reject_at_call = ratio(static_cast<double>(t.reject_call_sum),
                                  static_cast<double>(t.early_rejects));
  l.swat_checksum_self_us = ratio(t.checksum_self_us, verdicts);
  l.core_verify_us = ratio(t.verify_us, verdicts);
  l.core_verify_self_us =
      ratio(t.verify_us - t.checksum_self_us - t.emulate_us, verdicts);
  l.core_emulation_share =
      ratio(t.soft_batch_us + t.reproduce_soft_us, t.verify_us);
}

void measure_verifier_build(
    const std::vector<const core::EnrollmentRecord*>& records,
    const ecc::BinaryCode& code, std::size_t count, Layers& l) {
  std::vector<std::unique_ptr<core::Verifier>> built;
  built.reserve(count);
  // Hand freed heap back first so the growth below is this build's.
  malloc_trim(0);
  const double rss0 = rss_bytes();
  double us = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = Clock::now();
    built.push_back(std::make_unique<core::Verifier>(
        *records[i % records.size()], code));
    us += micros_between(start, Clock::now());
  }
  const double grown = rss_bytes() - rss0;
  l.service_verifier_build_us = us / static_cast<double>(count);
  l.service_bytes_per_verifier =
      grown > 0.0 ? grown / static_cast<double>(count) : 0.0;
}

}  // namespace perfbench

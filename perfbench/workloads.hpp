// The benchmark's three workloads and the metric sets they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/enrollment.hpp"
#include "ecc/linear_code.hpp"
#include "harness.hpp"
#include "probe.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Setups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// End-to-end metrics (untraced run).  The latencies are printed, not
/// bounded (see README).
struct EndToEnd {
  double verdicts_per_s = 0.0;
  double latency_mean_us = 0.0;
  Percentile p50;
  Percentile p90;
  Percentile p99;
  double cpu_us_per_verdict = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// Per-layer metrics (traced run).  A layer the workload bypasses reads 0.
struct Layers {
  double timingsim_soft_batch_us = 0.0;   ///< per PUF call (8 lanes)
  double ecc_reproduce_soft_us = 0.0;     ///< per response
  double alupuf_emulate_us = 0.0;         ///< per PUF call
  double alupuf_obfuscate_us = 0.0;       ///< per PUF call that decoded
  double alupuf_calls_per_verdict = 0.0;
  double alupuf_reject_at_call = 0.0;     ///< mean failing call, early rejects
  double swat_checksum_self_us = 0.0;     ///< per verdict, no PUF work
  double core_verify_us = 0.0;            ///< probed verify, per verdict
  double core_verify_self_us = 0.0;       ///< verify - checksum - emulation
  double core_emulation_share = 0.0;      ///< (engine + decoder) / verify
  double cpu_prover_us = 0.0;             ///< prover simulation per verdict
  double cpu_prover_share = 0.0;          ///< of server CPU
  double service_cache_hit_frac = 0.0;
  double service_cache_build_us = 0.0;    ///< cache.build span mean
  double service_cache_acquire_us = 0.0;  ///< cache.acquire span mean
  double service_verifier_build_us = 0.0; ///< Verifier constructor
  double service_bytes_per_verifier = 0.0;
  double service_queue_wait_us = 0.0;     ///< pool.queue_wait span mean
  double service_worker_busy_frac = 0.0;
  double service_queue_depth_hwm = 0.0;
  double net_wire_rtt_us = 0.0;           ///< merged client/server traces
  double net_bytes_per_verdict = 0.0;
  double net_busy_per_verdict = 0.0;
  double net_decode_errors = 0.0;
  double client_loadgen_cpu_us_per_verdict = 0.0;
  double trace_overhead_frac = 0.0;       ///< traced vs untraced cost - 1
  double trace_unaccounted_frac = 0.0;    ///< end-to-end no layer covers
};

struct RunResult {
  FailureTally tally;
  EndToEnd e2e;    ///< filled when !Options::trace
  Layers layers;   ///< filled when Options::trace
};

RunResult run_verify_mix(const Options& options);
/// wire_hot or wire_sweep, by options.workload.
RunResult run_wire(const Options& options);

/// Fills the verify-path layers from probe totals.
void fill_probe_layers(const LayerTimes& t, Layers& layers);

/// Builds `count` verifiers cycling over `records` and fills
/// service_verifier_build_us and service_bytes_per_verifier.
void measure_verifier_build(
    const std::vector<const pufatt::core::EnrollmentRecord*>& records,
    const pufatt::ecc::BinaryCode& code, std::size_t count, Layers& layers);

/// Deterministic 64-bit mix of the workload seed with a stream label.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

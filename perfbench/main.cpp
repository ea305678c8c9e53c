// Attestation benchmark: command-line entry point.
//
//   perfbench --workload verify_mix|wire_hot|wire_sweep --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// is the separate traced run that reports the per-layer metrics.  Every
// metric is printed on its own line with its unit, and the last line of
// standard output is the JSON result.  A verdict mismatch or a failed
// workload-validity check exits 2 without a result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {

namespace {

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {
      {"verdicts_per_s", e.verdicts_per_s, "1/s"},
      {"cpu_us_per_verdict", e.cpu_us_per_verdict, "us"},
      {"setup_s", e.setup_s, "s"},
      {"peak_rss_mb", e.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> layer_metrics(const Layers& l) {
  return {
      {"timingsim.soft_batch_us", l.timingsim_soft_batch_us, "us"},
      {"ecc.reproduce_soft_us", l.ecc_reproduce_soft_us, "us"},
      {"alupuf.emulate_us", l.alupuf_emulate_us, "us"},
      {"alupuf.obfuscate_us", l.alupuf_obfuscate_us, "us"},
      {"alupuf.calls_per_verdict", l.alupuf_calls_per_verdict, "count"},
      {"alupuf.reject_at_call", l.alupuf_reject_at_call, "count"},
      {"swat.checksum_self_us", l.swat_checksum_self_us, "us"},
      {"core.verify_us", l.core_verify_us, "us"},
      {"core.verify_self_us", l.core_verify_self_us, "us"},
      {"core.emulation_share", l.core_emulation_share, "frac"},
      {"cpu.prover_us", l.cpu_prover_us, "us"},
      {"cpu.prover_share", l.cpu_prover_share, "frac"},
      {"service.cache_hit_frac", l.service_cache_hit_frac, "frac"},
      {"service.cache_build_us", l.service_cache_build_us, "us"},
      {"service.cache_acquire_us", l.service_cache_acquire_us, "us"},
      {"service.verifier_build_us", l.service_verifier_build_us, "us"},
      {"service.bytes_per_verifier", l.service_bytes_per_verifier, "B"},
      {"service.queue_wait_us", l.service_queue_wait_us, "us"},
      {"service.worker_busy_frac", l.service_worker_busy_frac, "frac"},
      {"service.queue_depth_hwm", l.service_queue_depth_hwm, "count"},
      {"net.wire_rtt_us", l.net_wire_rtt_us, "us"},
      {"net.bytes_per_verdict", l.net_bytes_per_verdict, "B"},
      {"net.busy_per_verdict", l.net_busy_per_verdict, "count"},
      {"net.decode_errors", l.net_decode_errors, "count"},
      {"client.loadgen_cpu_us_per_verdict",
       l.client_loadgen_cpu_us_per_verdict, "us"},
      {"trace.overhead_frac", l.trace_overhead_frac, "frac"},
      {"trace.unaccounted_frac", l.trace_unaccounted_frac, "frac"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload verify_mix|wire_hot|wire_sweep "
               "--seed N --seconds S --trace 0|1\n");
  return 64;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        return usage();
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage();
      }
      options.trace = value[0] == '1';
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();

  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  try {
    RunResult result;
    if (options.workload == "verify_mix") {
      result = run_verify_mix(options);
    } else if (options.workload == "wire_hot" ||
               options.workload == "wire_sweep") {
      result = run_wire(options);
    } else {
      return usage();
    }
    const auto& t = result.tally;
    std::printf("attempted %llu, failed %llu (failed_frac %.6f; connect "
                "failures %llu, disconnects %llu, error replies %llu, busy "
                "retries exhausted %llu, exceptions %llu)\n",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed), t.failed_frac(),
                static_cast<unsigned long long>(t.connect_failures),
                static_cast<unsigned long long>(t.disconnects),
                static_cast<unsigned long long>(t.error_replies),
                static_cast<unsigned long long>(t.retries_exhausted),
                static_cast<unsigned long long>(t.exceptions));
    if (options.trace) {
      print_result(t, layer_metrics(result.layers));
    } else {
      const auto& e = result.e2e;
      if (!e.p50.valid || !e.p90.valid || !e.p99.valid) {
        throw CheckFailed{"too few verdicts for the latency percentiles"};
      }
      std::printf("latency: %zu samples; p50 at rank %.4f, p90 at rank %.4f "
                  "(%zu beyond), p99 at rank %.4f (%zu beyond)\n",
                  e.p90.samples, e.p50.percentile, e.p90.percentile,
                  e.p90.beyond, e.p99.percentile, e.p99.beyond);
      // Printed, not put in the result: failed_frac's counts are the
      // result's "attempted" and "failed", and on shared hosts the wall-
      // time latencies follow host-stall phases that no regression bound
      // holds; the closed loop's mean latency is concurrency over
      // verdicts_per_s, which is bounded (see README).
      std::printf("  %-40s %16.6f frac (of %llu attempted)\n", "failed_frac",
                  t.failed_frac(),
                  static_cast<unsigned long long>(t.attempted));
      std::printf("  %-40s %16.6f us\n", "latency_mean_us", e.latency_mean_us);
      std::printf("  %-40s %16.6f us\n", "latency_p50_us", e.p50.value);
      std::printf("  %-40s %16.6f us\n", "latency_p90_us", e.p90.value);
      std::printf("  %-40s %16.6f us\n", "latency_p99_us", e.p99.value);
      print_result(t, end_to_end_metrics(e));
    }
  } catch (const CheckFailed& failure) {
    std::fflush(stdout);
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.what.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", error.what());
    return 3;
  }
  return 0;
}

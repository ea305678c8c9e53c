// Measurement helpers shared by every workload of the attestation
// benchmark: the latency-percentile rule, failure tallies, process and
// thread CPU clocks, resident memory, and the one-line JSON result.
//
// Everything here is plain arithmetic over samples the workloads collect;
// perfbench_selftest pins the percentile rule and the failure counting.
#pragma once

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "net/loadgen.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// A percentile read off a sample set by nearest rank, with how many
/// samples lie strictly beyond it.
struct Percentile {
  double value = 0.0;
  double percentile = 0.0;  ///< rank / n actually used, in (0, 1]
  std::size_t samples = 0;  ///< n
  std::size_t beyond = 0;   ///< samples ranked above the reported one
  bool valid = false;       ///< false when n is too small for the rule
};

/// Nearest-rank percentile `want_percent` of `sorted` (ascending), lowered
/// when needed so that at least `min_beyond` samples lie beyond it: the
/// highest percentile that still has that many samples past it.
inline Percentile tail_percentile(const std::vector<double>& sorted,
                                  std::size_t want_percent,
                                  std::size_t min_beyond = 10) {
  Percentile p;
  p.samples = sorted.size();
  const std::size_t n = sorted.size();
  if (n <= min_beyond) return p;
  const std::size_t wanted_rank = (n * want_percent + 99) / 100;  // ceil
  const std::size_t rank = std::min(wanted_rank, n - min_beyond);
  if (rank == 0) return p;
  p.value = sorted[rank - 1];
  p.percentile = static_cast<double>(rank) / static_cast<double>(n);
  p.beyond = n - rank;
  p.valid = true;
  return p;
}

/// Median by nearest rank (the lower middle for even n).
inline double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

/// "a, b, c" with millisecond precision, for printing repeated timings.
inline std::string list_of(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : ", ", v);
    out += buf;
  }
  return out;
}

inline double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Operations attempted versus operations that ended without a verdict,
/// with the reasons the load generator reports.
struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< attempted operations with no verdict
  std::uint64_t connect_failures = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t exceptions = 0;

  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 1.0;
  }
  void add(const FailureTally& other) {
    attempted += other.attempted;
    failed += other.failed;
    connect_failures += other.connect_failures;
    disconnects += other.disconnects;
    error_replies += other.error_replies;
    retries_exhausted += other.retries_exhausted;
    exceptions += other.exceptions;
  }
};

/// One load-generator round: every job is attempted, and a job fails when
/// no verdict came back for it, whatever the cause (connect failure,
/// disconnect, error reply, busy retries exhausted).
inline FailureTally tally_round(const pufatt::net::LoadGenReport& report) {
  FailureTally t;
  t.attempted = report.jobs;
  for (const auto& job : report.by_job) {
    if (!job.completed) ++t.failed;
  }
  t.connect_failures = report.connect_failures;
  t.disconnects = report.disconnects;
  t.error_replies = report.error_replies;
  t.retries_exhausted = report.retries_exhausted;
  return t;
}

inline double timespec_us(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// User + system CPU of the whole process, microseconds.
inline double process_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return timespec_us(ts);
}

/// CPU of the calling thread, microseconds.
inline double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return timespec_us(ts);
}

/// Current resident set size, bytes.
inline double rss_bytes() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Peak resident set size of this program image so far (VmHWM), MiB.
/// getrusage's ru_maxrss would also count the parent's pages the process
/// carried until exec.
inline double peak_rss_mb() {
  double kib = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    }
    std::fclose(f);
  }
  return kib / 1024.0;
}

/// Named metrics in print order, emitted as the benchmark's last line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints every metric as a readable line, then the result object
///   {"correct":true,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// as the final line of standard output.  Only a run whose every check
/// passed gets this far; a failed check exits without a result.
inline void print_result(const FailureTally& tally,
                         const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// A failed correctness or workload-validity check: the run prints why and
/// exits nonzero without a result line.
struct CheckFailed {
  std::string what;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed{what};
}

}  // namespace perfbench

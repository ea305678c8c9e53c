// Self-test of the benchmark harness: the latency-percentile rule and the
// failure counting.  Exits 0 when every check holds.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void percentile_rule() {
  using perfbench::tail_percentile;
  // 1000 samples: p99 is rank 990, exactly 10 beyond it.
  auto p = tail_percentile(ramp(1000), 99);
  expect(p.valid && p.value == 990.0 && p.beyond == 10 &&
             p.percentile == 0.99,
         "p99 of 1000 samples is rank 990 with 10 beyond");
  // 2000 samples: rank 1980, 20 beyond; the rule does not lower it.
  p = tail_percentile(ramp(2000), 99);
  expect(p.valid && p.value == 1980.0 && p.beyond == 20,
         "p99 of 2000 samples is rank 1980");
  // 500 samples: p99 would leave 5 beyond, so it drops to rank 490.
  p = tail_percentile(ramp(500), 99);
  expect(p.valid && p.value == 490.0 && p.beyond == 10 &&
             p.percentile == 0.98,
         "p99 of 500 samples lowers to rank 490 (10 beyond)");
  // 11 samples: only rank 1 keeps 10 beyond.
  p = tail_percentile(ramp(11), 99);
  expect(p.valid && p.value == 1.0 && p.beyond == 10,
         "11 samples keep exactly rank 1");
  // 10 or fewer samples cannot satisfy the rule.
  expect(!tail_percentile(ramp(10), 99).valid, "10 samples are too few");
  expect(!tail_percentile({}, 99).valid, "no samples are too few");
  // Median by nearest rank, and non-integral ranks round up.
  p = tail_percentile(ramp(1001), 50);
  expect(p.valid && p.value == 501.0, "p50 of 1001 samples is rank 501");
  p = tail_percentile(ramp(1001), 99);
  expect(p.valid && p.value == 991.0 && p.beyond == 10,
         "p99 of 1001 samples rounds rank 990.99 up to 991");
  expect(perfbench::median_of({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void failure_counting() {
  pufatt::net::LoadGenReport report;
  report.jobs = 8;
  report.by_job.assign(8, pufatt::net::JobVerdict{});
  for (std::size_t j = 0; j < 8; ++j) report.by_job[j].completed = j % 4 != 3;
  report.connect_failures = 1;
  report.disconnects = 2;
  report.error_replies = 3;
  report.retries_exhausted = 4;
  auto t = perfbench::tally_round(report);
  expect(t.attempted == 8 && t.failed == 2,
         "a job without a verdict is failed, whatever the reason");
  expect(t.connect_failures == 1 && t.disconnects == 2 &&
             t.error_replies == 3 && t.retries_exhausted == 4,
         "failure reasons are carried through");
  expect(t.failed_frac() == 0.25, "failed_frac = failed / attempted");

  perfbench::FailureTally total;
  total.add(t);
  perfbench::FailureTally thrown;
  thrown.attempted = 2;
  thrown.failed = 1;
  thrown.exceptions = 1;
  total.add(thrown);
  expect(total.attempted == 10 && total.failed == 3 && total.exceptions == 1,
         "tallies add across rounds, exceptions included");
  expect(perfbench::FailureTally{}.failed_frac() == 1.0,
         "nothing attempted counts as total failure");
}

}  // namespace

int main() {
  percentile_rule();
  failure_counting();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

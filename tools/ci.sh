#!/usr/bin/env bash
# Pre-merge gate: configure, build, and test the six supported trees.
#
#   build           plain (PUFATT_TRACE=ON by default)
#   build-asan      AddressSanitizer + UBSan   (-DPUFATT_SANITIZE=ON)
#   build-tsan      ThreadSanitizer           (-DPUFATT_TSAN=ON)
#   build-notrace   tracing compiled out      (-DPUFATT_TRACE=OFF)
#   build-x86-64-v3 AVX2 target instead of -march=native
#                   (-DPUFATT_NATIVE_SIMD=OFF -DCMAKE_CXX_FLAGS=-march=x86-64-v3)
#   build-portable  kernels without -march=native (-DPUFATT_NATIVE_SIMD=OFF)
#
# Every tree runs the full ctest suite *including* the bench-labeled
# smokes (service_throughput_smoke, sim_engine_smoke, micro_perf_smoke,
# micro_perf_keeps_json, obs_overhead_smoke, net_throughput_smoke,
# attack_matrix_quick, ml_attack, engine_crosscheck), so the stable-schema
# BENCH_*.json writers and the tracing overhead gates are exercised under
# each sanitizer too.  ml_attack fails when a row of the paper's LR table
# (Sections 2 and 4.1) contradicts its verdict.
# attack_matrix_quick runs the whole adversary-lab roster
# (bench/attack_matrix --quick) with shrunk budgets and relaxed accuracy
# gates, but still asserts the matrix is byte-stable across thread counts.
# sim_engine_smoke additionally gates the bit-sliced engine (zero
# divergence vs scalar, thread-invariant CRP digests), engine_crosscheck
# gates zero divergence per net per lane in both delay modes (one large
# batch and the served 8-lane calls), AluPufBatch.MatchesPerLaneScalarReference
# holds every batched device response and lane generator to one scalar
# timing run per lane, and gen_crps_thread_parity requires byte-identical
# gen-crps output at 1 and 3 worker threads.
# The TSan tree in particular covers gen-crps's shard workers sharing one
# device (gen_crps_thread_parity), the socket front end's
# cross-thread seams — event-loop wakeups, pool-completion posts back onto
# the loop thread, server/loadgen counter handoff (tests/net_test.cpp) —
# four threads evaluating one device at two operating points through
# every eval path
# (AluPuf.ConcurrentEvaluationAcrossEnvironmentsMatchesSerial), pool jobs
# of one device running side by side
# (VerifierPool.SameDeviceJobsMatchSerialVerdicts), and eight threads
# verifying seeded transcripts on one shared core::Verifier
# (SharedVerifierTest).
#
# The plain (and sanitizer) trees also run the cross-process tracing
# fixture trace_merge_pipeline: traced serve + traced loadgen as two OS
# processes over a Unix socket, one live fleet-stats poll mid-flight, then
# `trace-report <client> <server>` must join 100% of wire verdicts into
# linked timelines.  On build-notrace that fixture (and trace_pipeline) is
# not registered, and the span-dependent gtests in trace_merge_test.cpp
# GTEST_SKIP themselves — the wire-format and interop tests still run, so
# the no-trace tree keeps proving the traced/untraced byte compatibility.
#
# The vector kernels (the bit-sliced engine's time steps, the RM(1,5)
# Hadamard transform, the lane noise fill and the arbiter sweep) have one
# source, whose vector width follows the target (src/support/simd.hpp):
# the first four trees compile them for the build host's ISA (64 bytes on an AVX-512 host), build-x86-64-v3 at 32
# bytes on AVX2, and build-portable at 16 bytes on SSE2.  All three widths
# must produce the same bytes: the differential tests against the scalar
# references hold on every tree.
#
# Every tree configures with CMAKE_COMPILE_WARNING_AS_ERROR=ON, so a new
# compiler warning fails its tree instead of scrolling past.
#
# Each tree then reruns the torture-labeled seeded kill-and-recover loop
# (tests/store_torture.cpp) with a second seed: random fault points over
# an append workload, gating that the reopened store stays byte-identical
# to read-only crash recovery and still serves a durable write under
# plain, ASan, TSan, no-trace, AVX2 and portable builds.
# Tune with TORTURE_ITERS / TORTURE_SEED.
#
# Both ctest calls pass --no-tests=error: a selection that matches no test
# (a mistyped -R filter, a vanished torture label) fails the tree instead
# of passing it after running nothing.
#
# `tools/ci.sh --mutants` runs the mutation gate instead
# (tools/mutants.sh over tools/mutants.txt: each one-edit mutant of a
# fail-closed check, rebuilt and run against the plain tree's ctest; any
# survivor fails).  It rebuilds once per mutant, so it is not part of the
# default run.
#
# Usage: tools/ci.sh [extra ctest args...]
#        tools/ci.sh --mutants
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ "${1:-}" == "--mutants" ]]; then
  shift
  exec tools/mutants.sh "$@"
fi
JOBS="$(nproc 2>/dev/null || echo 4)"
TORTURE_ITERS="${TORTURE_ITERS:-12}"
TORTURE_SEED="${TORTURE_SEED:-49537}"

run_tree() {
  local tree="$1"
  shift
  echo "=== ${tree}: configure ($*) ==="
  cmake -B "${tree}" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON "$@"
  echo "=== ${tree}: build ==="
  cmake --build "${tree}" -j "${JOBS}"
  echo "=== ${tree}: ctest ==="
  # ${arr[@]+...} keeps `set -u` happy on bash < 4.4 when no args given.
  (cd "${tree}" && ctest --output-on-failure --no-tests=error -j "${JOBS}" \
      ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"})
  echo "=== ${tree}: kill-and-recover torture (seed ${TORTURE_SEED}, ${TORTURE_ITERS} iters) ==="
  (cd "${tree}" && \
      STORE_TORTURE_ITERS="${TORTURE_ITERS}" \
      STORE_TORTURE_SEED="${TORTURE_SEED}" \
      ctest --output-on-failure --no-tests=error -L torture)
}

CTEST_ARGS=("$@")

run_tree build
run_tree build-asan -DPUFATT_SANITIZE=ON
run_tree build-tsan -DPUFATT_TSAN=ON
# The store's span instrumentation compiles to no-ops here; this leg keeps
# the subsystem (and everything else) honest about not *requiring* tracing.
run_tree build-notrace -DPUFATT_TRACE=OFF
run_tree build-x86-64-v3 -DPUFATT_NATIVE_SIMD=OFF \
    -DCMAKE_CXX_FLAGS=-march=x86-64-v3
run_tree build-portable -DPUFATT_NATIVE_SIMD=OFF

echo "=== ci.sh: all trees green ==="

# `micro_perf` with a filter that matches no benchmark must not replace an
# earlier BENCH_micro_perf.json: seed a sentinel file in a fresh working
# directory, run the unmatched filter there and require the file unchanged.
#
# Invoked by ctest with -DBENCH=<micro_perf> -DDIR=<scratch directory>.
set(sentinel "{\"sentinel\": true}\n")
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
file(WRITE ${DIR}/BENCH_micro_perf.json "${sentinel}")
execute_process(COMMAND ${BENCH} --benchmark_filter=^NoSuchBenchmark$
                WORKING_DIRECTORY ${DIR}
                RESULT_VARIABLE result
                OUTPUT_QUIET ERROR_QUIET)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "micro_perf exited ${result}")
endif()
file(READ ${DIR}/BENCH_micro_perf.json after)
if(NOT after STREQUAL sentinel)
  message(FATAL_ERROR "micro_perf replaced BENCH_micro_perf.json:\n${after}")
endif()

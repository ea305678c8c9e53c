# `micro_perf --benchmark_format=json` must print google-benchmark's JSON on
# stdout, with no console colour escapes, and still write
# BENCH_micro_perf.json: run one benchmark that way in a fresh working
# directory and parse both.
#
# Invoked by ctest with -DBENCH=<micro_perf> -DDIR=<scratch directory>.
set(name BM_Transpose64x64)
file(REMOVE_RECURSE ${DIR})
file(MAKE_DIRECTORY ${DIR})
execute_process(COMMAND ${BENCH} --benchmark_format=json
                        --benchmark_filter=^${name}$
                        --benchmark_min_time=0.01
                WORKING_DIRECTORY ${DIR}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE out
                ERROR_QUIET)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "micro_perf exited ${result}")
endif()
string(ASCII 27 esc)
string(FIND "${out}" "${esc}" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "stdout holds an ESC byte:\n${out}")
endif()
string(JSON printed ERROR_VARIABLE error GET "${out}" benchmarks 0 name)
if(error OR NOT printed STREQUAL name)
  message(FATAL_ERROR "stdout is not the JSON of ${name} (${error}):\n${out}")
endif()
if(NOT EXISTS ${DIR}/BENCH_micro_perf.json)
  message(FATAL_ERROR "micro_perf wrote no BENCH_micro_perf.json")
endif()
file(READ ${DIR}/BENCH_micro_perf.json written)
string(JSON captured ERROR_VARIABLE error GET "${written}" benchmarks 0 name)
if(error OR NOT captured STREQUAL name)
  message(FATAL_ERROR "BENCH_micro_perf.json lacks ${name}:\n${written}")
endif()

# Engine-independence check for `pufatt-cli gen-crps --engine=...`: the
# scalar reference and the bit-sliced engine must emit byte-identical CSVs.
# The batch_seed draw and the per-lane RNG derivation happen before engine
# dispatch, and the exactness contract makes both engines compute the same
# settle-time doubles, so any divergence here is a kernel bug, not noise.
# 300 CRPs = one full 256-block (2400 raw lanes, so multi-word bit-sliced
# batches) plus an uneven tail block of 44.
#
# Invoked by ctest with -DCLI=<pufatt-cli> -DOUTDIR=<dir>.
foreach(engine scalar bitslice)
  execute_process(COMMAND ${CLI} gen-crps 77 300 2
                          ${OUTDIR}/gen_crps_${engine}.csv
                          --engine=${engine}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gen-crps --engine=${engine} exited ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${OUTDIR}/gen_crps_scalar.csv
                        ${OUTDIR}/gen_crps_bitslice.csv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "gen-crps --engine=bitslice output differs from scalar")
endif()

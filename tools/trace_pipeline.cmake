# End-to-end observability pipeline check: a traced serve-demo run must
# produce (a) a Chrome trace_event file that trace-report can parse and
# summarize into the expected stages, and (b) a metrics snapshot carrying
# the service counters.  This is the operator workflow from the README,
# run small.
#
# Invoked by ctest with -DCLI=<pufatt-cli> -DTRACE=... -DJSONL=...
# -DMETRICS=....
execute_process(COMMAND ${CLI} serve-demo 2 12 3
                        --trace-out=${TRACE}
                        --trace-jsonl=${JSONL}
                        --metrics-out=${METRICS}
                RESULT_VARIABLE demo_result
                OUTPUT_VARIABLE demo_output)
if(NOT demo_result EQUAL 0)
  message(FATAL_ERROR "traced serve-demo exited ${demo_result}")
endif()

foreach(out ${TRACE} ${JSONL} ${METRICS})
  if(NOT EXISTS ${out})
    message(FATAL_ERROR "serve-demo did not write ${out}")
  endif()
endforeach()

file(READ ${METRICS} metrics_json)
foreach(metric service.submitted service.accepted service.cache.misses
               service.latency_us.accepted sim.batches)
  if(NOT metrics_json MATCHES "\"${metric}\"")
    message(FATAL_ERROR "metrics snapshot lacks ${metric}: ${metrics_json}")
  endif()
endforeach()

# trace-report must digest the trace_event format (not just our JSONL).
foreach(input ${TRACE} ${JSONL})
  execute_process(COMMAND ${CLI} trace-report ${input}
                  RESULT_VARIABLE report_result
                  OUTPUT_VARIABLE report)
  if(NOT report_result EQUAL 0)
    message(FATAL_ERROR "trace-report ${input} exited ${report_result}")
  endif()
  foreach(stage pool.job pool.queue_wait pool.verify cache.acquire
                cache.build session.run session.attempt sim.run_bitslice
                channel_rtt_us delta_margin_us)
    if(NOT report MATCHES "${stage}")
      message(FATAL_ERROR "trace-report on ${input} lacks ${stage}:\n${report}")
    endif()
  endforeach()
endforeach()

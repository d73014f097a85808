# Usage-error smoke for every CLI's numeric flags, run via `cmake -P` from
# ctest (arpsec_check_bad_numbers): each malformed or out-of-bounds value
# must exit with the usage code 2 and the shared parser's "bad count"
# message. An uncaught parse exception aborts instead, and a value that
# silently becomes 0 runs the tool; both fail the check. Every case is
# rejected while the arguments are parsed, so no tool does any work here.
#
# Expects -DCHECK_TOOL, -DSERVED_TOOL, -DLOADGEN_TOOL, -DTRACE_TOOL and
# -DSIM_TOOL.

function(expect_bad_count tool)
  execute_process(
    COMMAND ${tool} ${ARGN}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "bad count")
    get_filename_component(name ${tool} NAME)
    string(REPLACE ";" " " flags "${ARGN}")
    message(FATAL_ERROR "${name} ${flags}: want usage exit 2, got rc=${rc}: ${err}")
  endif()
endfunction()

foreach(bad "--seeds;abc" "--seeds;-3" "--first-seed;-1" "--first-seed;7x" "--jobs;4x")
  expect_bad_count(${CHECK_TOOL} ${bad})
endforeach()

foreach(bad "--shards;abc" "--shards;0" "--ring;0" "--ring;-1" "--tcp;70000"
            "--grace-ms;2s" "--read-timeout-ms;0" "--idle-timeout-ms;-1" "--conns;0"
            "--scorecard-every;x")
  expect_bad_count(${SERVED_TOOL} ${bad})
endforeach()

foreach(bad "--count;-1" "--skip;abc" "--repeat;0" "--batch-frames;0"
            "--tcp;127.0.0.1:abc" "--tcp;127.0.0.1:0")
  expect_bad_count(${LOADGEN_TOOL} ${bad})
endforeach()

foreach(bad "--frames;abc" "--frames;0" "--first-seed;-1" "--jobs;0" "--gap-ms;-5"
            "--max-hosts;1" "--max-events;3e")
  expect_bad_count(${TRACE_TOOL} ${bad})
endforeach()

foreach(bad "--hosts;abc" "--hosts;0" "--seed;-1" "--duration;60s" "--attack-window;20;x"
            "--jobs;0" "--seeds;-2")
  expect_bad_count(${SIM_TOOL} ${bad})
endforeach()

message(STATUS "every CLI rejects malformed numbers with the usage exit")

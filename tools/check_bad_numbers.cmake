# Usage-error smoke for arpsec-check, run via `cmake -P` from ctest
# (arpsec_check_bad_numbers): every malformed numeric flag must exit with
# the usage code 2 and the shared parser's "bad count" message. An uncaught
# parse exception aborts instead, which fails both checks.
#
# Expects -DCHECK_TOOL.

foreach(bad "--seeds;abc" "--seeds;-3" "--first-seed;-1" "--first-seed;7x" "--jobs;4x")
  execute_process(
    COMMAND ${CHECK_TOOL} ${bad}
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "bad count")
    string(REPLACE ";" " " flag "${bad}")
    message(FATAL_ERROR "arpsec-check ${flag}: want usage exit 2, got rc=${rc}: ${err}")
  endif()
endforeach()

message(STATUS "arpsec-check rejects malformed numbers with the usage exit")

# Smoke test for trace replay, run via `cmake -P` from ctest
# (arpsec_replay_smoke): generate a small labeled trace, replay it with
# --jobs 1 and --jobs 4, and require byte-identical stdout and artifacts.
# Malformed numeric flags must be usage errors (exit 2), never a silent 0.
#
# Expects -DTRACE_TOOL, -DREPLAY_TOOL, -DWORK_DIR.

file(MAKE_DIRECTORY ${WORK_DIR})
set(PCAP ${WORK_DIR}/smoke.pcap)

execute_process(
  COMMAND ${TRACE_TOOL} --frames 1500 --jobs 2 --out ${PCAP}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "arpsec-trace failed (rc=${rc})")
endif()

foreach(jobs 1 4)
  execute_process(
    COMMAND ${REPLAY_TOOL} --pcap ${PCAP} --jobs ${jobs} --no-timing
            --out ${WORK_DIR}/replay-j${jobs}.json
    OUTPUT_VARIABLE stdout_j${jobs}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "arpsec-replay --jobs ${jobs} failed (rc=${rc})")
  endif()
endforeach()

if(NOT stdout_j1 STREQUAL stdout_j4)
  message(FATAL_ERROR "replay stdout differs between --jobs 1 and --jobs 4")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/replay-j1.json ${WORK_DIR}/replay-j4.json
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay artifacts differ between --jobs 1 and --jobs 4")
endif()

foreach(bad "--jobs;abc" "--jobs;0" "--window-ms;abc" "--window-ms;-1000"
            "--window-ms;10ms" "--grace-ms;-1")
  execute_process(
    COMMAND ${REPLAY_TOOL} --pcap ${PCAP} ${bad} --no-timing
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "bad count")
    string(REPLACE ";" " " flag "${bad}")
    message(FATAL_ERROR "arpsec-replay ${flag}: want usage exit 2, got rc=${rc}: ${err}")
  endif()
endforeach()

message(STATUS "replay smoke: jobs-invariant stdout and artifact confirmed")

# Usage-error check: run_suite must reject a malformed knob or flag with
# exit status 2 and a message naming it, before any work and never by
# aborting (a SIGABRT would surface as a non-2 status here).
#
#   cmake -DRUN_SUITE=<run_suite binary> -P tests/run_suite_knob_check.cmake

if(NOT RUN_SUITE)
  message(FATAL_ERROR "usage: cmake -DRUN_SUITE=<path> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

foreach(knob FAIRCLEAN_SAMPLE FAIRCLEAN_REPEATS FAIRCLEAN_FOLDS FAIRCLEAN_SEED
             FAIRCLEAN_THREADS FAIRCLEAN_FAULTS FAIRCLEAN_FAULT_SEED)
  unset(ENV{${knob}})
endforeach()

set(problems "")

# run_case(<label> <expected exit> <stderr regex> <env assignment or "">
#          <run_suite args...>)
# Set `forbidden` to a regex stderr must not match (cleared after each case).
function(run_case label expected pattern assignment)
  set(command "${RUN_SUITE}" ${ARGN})
  if(assignment)
    set(command "${CMAKE_COMMAND}" -E env "${assignment}" ${command})
  endif()
  execute_process(
    COMMAND ${command}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected}")
    list(APPEND problems "${label}: exit ${code}, want ${expected}\n    stderr: ${err}")
  elseif(pattern AND NOT err MATCHES "${pattern}")
    list(APPEND problems "${label}: stderr does not match ${pattern}: ${err}")
  elseif(forbidden AND err MATCHES "${forbidden}")
    list(APPEND problems "${label}: stderr matches ${forbidden}: ${err}")
  endif()
  set(problems "${problems}" PARENT_SCOPE)
endfunction()

run_case("well-formed knobs" 0 "" "" --list)
run_case("sample 15k" 2 "FAIRCLEAN_SAMPLE" "FAIRCLEAN_SAMPLE=15k" --list)
run_case("threads four" 2 "FAIRCLEAN_THREADS" "FAIRCLEAN_THREADS=four" --list)
# Well-formed scales no study can run at: no rows, one fold, one repeat.
run_case("sample 0" 2 "FAIRCLEAN_SAMPLE" "FAIRCLEAN_SAMPLE=0" --list)
run_case("folds 0" 2 "FAIRCLEAN_FOLDS" "FAIRCLEAN_FOLDS=0" --list)
run_case("folds 1" 2 "FAIRCLEAN_FOLDS" "FAIRCLEAN_FOLDS=1" --list)
run_case("repeats 0" 2 "FAIRCLEAN_REPEATS" "FAIRCLEAN_REPEATS=0" --list)
run_case("repeats 1" 2 "FAIRCLEAN_REPEATS" "FAIRCLEAN_REPEATS=1" --list)
run_case("fault seed 9x" 2 "FAIRCLEAN_FAULT_SEED" "FAIRCLEAN_FAULT_SEED=9x"
         --list)
run_case("fault spec oops" 2 "FAIRCLEAN_FAULTS: " "FAIRCLEAN_FAULTS=numeric:oops"
         --list)
# A site no production code probes arms nothing, so it is a usage error.
run_case("fault site socket_read" 2 "FAIRCLEAN_FAULTS"
         "FAIRCLEAN_FAULTS=socket_read:1" --list)
# A bad seed names the seed knob only, not the fault spec's.
set(forbidden "FAIRCLEAN_FAULTS")
run_case("fault seed -3" 2 "FAIRCLEAN_FAULT_SEED" "FAIRCLEAN_FAULT_SEED=-3"
         --list)
unset(forbidden)
run_case("unknown flag" 2 "usage: run_suite" "" --bogus)

if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "run_suite usage errors:\n  ${report}")
endif()
message(STATUS "run_suite: malformed knobs and flags exit 2 naming the culprit")

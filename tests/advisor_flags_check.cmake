# Usage-error check: advisor_server and advisor_client must reject a
# malformed --port (not a decimal, or above 65535) and an unknown flag
# with exit status 2 and the usage line, before binding or connecting;
# the client likewise rejects a malformed --seed (not a non-negative
# decimal) and --deadline-s (trailing garbage, not finite).
# Every case runs under a timeout: a server that accepts a bad port starts
# serving and never returns on its own.
#
#   cmake -DSERVER=<advisor_server> -DCLIENT=<advisor_client>
#         -P tests/advisor_flags_check.cmake

if(NOT SERVER OR NOT CLIENT)
  message(FATAL_ERROR "usage: cmake -DSERVER=<path> -DCLIENT=<path> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

unset(ENV{FAIRCLEAN_SERVE_PORT})

set(problems "")

# run_case(<label> <expected exit> <stderr regex> <command...>)
function(run_case label expected pattern)
  execute_process(
    COMMAND ${ARGN}
    TIMEOUT 20
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected}")
    list(APPEND problems "${label}: exit ${code}, want ${expected}\n    stderr: ${err}")
  elseif(NOT err MATCHES "${pattern}")
    list(APPEND problems "${label}: stderr does not match ${pattern}: ${err}")
  endif()
  set(problems "${problems}" PARENT_SCOPE)
endfunction()

run_case("server port abc" 2 "--port must be a non-negative integer.*usage: advisor_server"
         "${SERVER}" --port abc)
run_case("server port 70000" 2 "--port must be <= 65535.*usage: advisor_server"
         "${SERVER}" --port 70000)
run_case("server unknown flag" 2 "usage: advisor_server" "${SERVER}" --bogus)
run_case("client port abc" 2 "--port must be a non-negative integer.*usage: advisor_client"
         "${CLIENT}" --port abc --op ping)
run_case("client port 70000" 2 "--port must be <= 65535.*usage: advisor_client"
         "${CLIENT}" --port 70000 --op ping)
run_case("client unknown flag" 2 "usage: advisor_client"
         "${CLIENT}" --port 7433 --bogus)
run_case("client seed abc" 2 "--seed must be a non-negative integer.*usage: advisor_client"
         "${CLIENT}" --port 1 --no-retry --seed abc --op ping)
run_case("client seed -1" 2 "--seed must be non-negative.*usage: advisor_client"
         "${CLIENT}" --port 1 --no-retry --seed -1 --op ping)
run_case("client deadline 1.5x" 2 "--deadline-s must be a number of seconds.*usage: advisor_client"
         "${CLIENT}" --port 1 --no-retry --dataset german --error-type missing_values
         --model log-reg --deadline-s 1.5x)
run_case("client deadline nan" 2 "--deadline-s must be finite.*usage: advisor_client"
         "${CLIENT}" --port 1 --no-retry --dataset german --error-type missing_values
         --model log-reg --deadline-s nan)

if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "advisor usage errors:\n  ${report}")
endif()
message(STATUS "advisor_server/advisor_client: malformed flags and unknown flags exit 2")

# Trace digest check: runs `obs_tool trace` on a committed fixture and pins
# its per-wave breakdown.
#
#   cmake -DOBS_TOOL=<obs_tool binary> -DFIXTURE=<trace.json> \
#         -P tests/obs_tool_trace_check.cmake
#
# The fixture holds cell spans tagged with valid waves (w0 twice, w2 once),
# a wave index that overflows size_t and a non-numeric one. The last two
# must count as untagged: the digest exits 0 and lists exactly the w0 and
# w2 rows.

if(NOT OBS_TOOL OR NOT FIXTURE)
  message(FATAL_ERROR "usage: cmake -DOBS_TOOL=<path> -DFIXTURE=<path> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(
  COMMAND "${OBS_TOOL}" trace "${FIXTURE}" --filter sched
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "obs_tool trace exited ${code}\nstdout:\n${out}\nstderr:\n${err}")
endif()

set(problems "")
foreach(expected
    "\n  w0          2        7.000  adult/missing_values/xgboost \\(5.000 ms\\)\n"
    "\n  w2          1        1.500  german/outliers/log-reg \\(1.500 ms\\)\n"
    "\nsched +cell w# x +1 "
    "\nsched +cell wabc y +1 ")
  if(NOT out MATCHES "${expected}")
    list(APPEND problems "missing line matching: ${expected}")
  endif()
endforeach()

string(FIND "${out}" "wave breakdown (sched):" at)
if(at EQUAL -1)
  list(APPEND problems "no wave breakdown section")
else()
  string(SUBSTRING "${out}" ${at} -1 breakdown)
  string(REGEX MATCHALL "\n  w[0-9]+ " rows "${breakdown}")
  list(LENGTH rows row_count)
  if(NOT row_count EQUAL 2)
    list(APPEND problems "expected 2 wave rows, got ${row_count}")
  endif()
endif()

if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "obs_tool trace digest:\n  ${report}\nstdout:\n${out}")
endif()
message(STATUS "obs_tool trace: wave breakdown correct")

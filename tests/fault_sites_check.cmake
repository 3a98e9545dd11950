# Fault-site drift check: the sites production code probes, the sites
# FaultInjector accepts and the sites README documents must be one set.
#
#   cmake -DROOT=<repo root> -P tests/fault_sites_check.cmake
#
# Probed: the first argument of every Inject("<site>") and
# CorruptScore("<site>", ...) call in src/. Accepted: the string literals
# of FaultInjector::KnownSites() in src/common/fault_injection.cc.
# Documented: the backquoted names after "over sites" in README's
# FAIRCLEAN_FAULTS row. A site accepted but never probed would let a chaos
# run arm nothing and pass; a probed site Configure rejects cannot be armed
# at all.

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(GLOB_RECURSE sources "${ROOT}/src/*.h" "${ROOT}/src/*.cc")
set(probed "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  string(REGEX MATCHALL "(Inject|CorruptScore)\\(\"[a-z_]+\"" hits "${text}")
  foreach(hit IN LISTS hits)
    string(REGEX REPLACE ".*\\(\"([a-z_]+)\"" "\\1" site "${hit}")
    list(APPEND probed "${site}")
  endforeach()
endforeach()

file(READ "${ROOT}/src/common/fault_injection.cc" injector)
string(REGEX MATCH "KnownSites\\(\\) {[^;]*;" known_body "${injector}")
string(REGEX MATCHALL "\"[a-z_]+\"" known_literals "${known_body}")
set(known "")
foreach(literal IN LISTS known_literals)
  string(REPLACE "\"" "" site "${literal}")
  list(APPEND known "${site}")
endforeach()

file(STRINGS "${ROOT}/README.md" fault_rows REGEX "^\\| `FAIRCLEAN_FAULTS` ")
string(REGEX MATCH "over sites [^;]*" sites_text "${fault_rows}")
string(REGEX MATCHALL "`[a-z_]+`" documented_literals "${sites_text}")
set(documented "")
foreach(literal IN LISTS documented_literals)
  string(REPLACE "`" "" site "${literal}")
  list(APPEND documented "${site}")
endforeach()

set(problems "")
foreach(set_name probed known documented)
  list(REMOVE_DUPLICATES ${set_name})
  list(SORT ${set_name})
  if(NOT ${set_name})
    list(APPEND problems "found no ${set_name} sites (did the code or README layout change?)")
  endif()
endforeach()
list(JOIN probed ", " probed_text)
list(JOIN known ", " known_text)
list(JOIN documented ", " documented_text)
if(NOT probed_text STREQUAL known_text)
  list(APPEND problems "sites probed in src/ (${probed_text}) differ from FaultInjector::KnownSites() (${known_text})")
endif()
if(NOT documented_text STREQUAL known_text)
  list(APPEND problems "sites in README's FAIRCLEAN_FAULTS row (${documented_text}) differ from FaultInjector::KnownSites() (${known_text})")
endif()

if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "fault site drift:\n  ${report}")
endif()
message(STATUS "fault sites: ${known_text} are probed, accepted and documented")

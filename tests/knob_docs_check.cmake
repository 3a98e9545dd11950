# Knob-docs drift check: every FAIRCLEAN_* environment knob the program
# reads must be documented in README.md, and every knob README documents
# must still be read somewhere.
#
#   cmake -DROOT=<repo root> [-DREADME=<path>] -P tests/knob_docs_check.cmake
#
# A knob counts as read when its name opens a string literal ("FAIRCLEAN_X)
# in src/, tools/ or bench/; header guards and comments never do. A README
# prefix row such as `FAIRCLEAN_BENCH_SUITE_*` documents every read name
# with that prefix, and must itself match at least one.

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<repo root> [-DREADME=<path>] -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
if(NOT README)
  set(README "${ROOT}/README.md")
endif()

file(GLOB_RECURSE sources
  "${ROOT}/src/*.h" "${ROOT}/src/*.cc"
  "${ROOT}/tools/*.h" "${ROOT}/tools/*.cc"
  "${ROOT}/bench/*.h" "${ROOT}/bench/*.cc")
set(read_names "")
foreach(source IN LISTS sources)
  file(READ "${source}" text)
  string(REGEX MATCHALL "\"FAIRCLEAN_[A-Z0-9_]+" hits "${text}")
  foreach(hit IN LISTS hits)
    string(SUBSTRING "${hit}" 1 -1 name)
    list(APPEND read_names "${name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES read_names)

file(READ "${README}" readme)
string(REGEX MATCHALL "FAIRCLEAN_[A-Z0-9_]+\\*?" documented "${readme}")
list(REMOVE_DUPLICATES documented)
set(exact "")
set(prefixes "")
foreach(entry IN LISTS documented)
  if(entry MATCHES "\\*$")
    string(REGEX REPLACE "\\*$" "" prefix "${entry}")
    list(APPEND prefixes "${prefix}")
  else()
    list(APPEND exact "${entry}")
  endif()
endforeach()

set(problems "")
foreach(name IN LISTS read_names)
  list(FIND exact "${name}" at)
  set(covered FALSE)
  if(NOT at EQUAL -1)
    set(covered TRUE)
  endif()
  foreach(prefix IN LISTS prefixes)
    string(FIND "${name}" "${prefix}" pos)
    if(pos EQUAL 0)
      set(covered TRUE)
    endif()
  endforeach()
  if(NOT covered)
    list(APPEND problems "${name} is read by the program but README.md never mentions it")
  endif()
endforeach()
foreach(name IN LISTS exact)
  list(FIND read_names "${name}" at)
  if(at EQUAL -1)
    list(APPEND problems "${name} is documented in README.md but nothing reads it")
  endif()
endforeach()
foreach(prefix IN LISTS prefixes)
  set(matched FALSE)
  foreach(name IN LISTS read_names)
    string(FIND "${name}" "${prefix}" pos)
    if(pos EQUAL 0)
      set(matched TRUE)
    endif()
  endforeach()
  if(NOT matched)
    list(APPEND problems "${prefix}* is documented in README.md but nothing reads such a knob")
  endif()
endforeach()

list(LENGTH read_names read_count)
if(problems)
  list(JOIN problems "\n  " report)
  message(FATAL_ERROR "knob docs drift:\n  ${report}")
endif()
message(STATUS "knob docs: all ${read_count} FAIRCLEAN_* knobs read by the program are documented in README.md")

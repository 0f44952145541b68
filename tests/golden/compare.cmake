# Runs EXAMPLE (with the space-separated ARGS, if given) and fails unless
# its stdout equals the GOLDEN file byte for byte. With FILTER, only the
# stdout lines matching that regex are compared (a bench's BENCH_JSON rows
# among its human-readable tables, say).
# Usage: cmake -DEXAMPLE=<binary> [-DARGS=<args>] -DGOLDEN=<file>
#              [-DFILTER=<regex>] -P compare.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
if(DEFINED FILTER)
  # Line by line with string(FIND), not a CMake list: list elements would
  # split at any ';' in the output.
  set(kept "")
  set(rest "${actual}")
  while(NOT rest STREQUAL "")
    string(FIND "${rest}" "\n" eol)
    if(eol EQUAL -1)
      set(line "${rest}")
      set(rest "")
    else()
      math(EXPR next "${eol} + 1")
      string(SUBSTRING "${rest}" 0 ${next} line)
      string(SUBSTRING "${rest}" ${next} -1 rest)
    endif()
    if(line MATCHES "${FILTER}")
      string(APPEND kept "${line}")
    endif()
  endwhile()
  set(actual "${kept}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${GOLDEN}\n"
                      "--- expected\n${expected}\n--- actual\n${actual}")
endif()

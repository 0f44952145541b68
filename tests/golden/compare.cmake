# Runs EXAMPLE and fails unless its stdout equals the GOLDEN file byte for
# byte. Usage: cmake -DEXAMPLE=<binary> -DGOLDEN=<file> -P compare.cmake
execute_process(COMMAND ${EXAMPLE} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${GOLDEN}\n"
                      "--- expected\n${expected}\n--- actual\n${actual}")
endif()

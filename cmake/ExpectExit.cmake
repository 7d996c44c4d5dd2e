# Script mode (cmake -P): run a command and require an exact exit code and
# an output fragment — the CLI contracts a plain add_test cannot state
# (e.g. a usage error exits 2 with `error: <why>` rather than aborting).
#
#   cmake -DEXPECT_CODE=2 -DEXPECT_OUTPUT=<regex> -P ExpectExit.cmake \
#         -- <command> [args...]
#
# Used by add_exit_test in cmake/SmokeTests.cmake.

if(NOT DEFINED EXPECT_CODE OR NOT DEFINED EXPECT_OUTPUT)
  message(FATAL_ERROR "ExpectExit.cmake needs -DEXPECT_CODE and -DEXPECT_OUTPUT")
endif()

set(command "")
set(after_marker FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_marker)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_marker TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "ExpectExit.cmake: no command after --")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${out}${err}")
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "expected exit code ${EXPECT_CODE}, got '${code}'")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()

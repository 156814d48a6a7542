# Run a command and fail unless it exits with status EXPECTED:
#   cmake -DEXPECTED=<status> -P expect_exit.cmake <program> [args...]
# (the program is CMAKE_ARGV4: cmake, -D..., -P and this file come first).
set(command "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 4 ${last})
    list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT status STREQUAL "${EXPECTED}")
    message(FATAL_ERROR
        "expected exit status ${EXPECTED}, got '${status}': ${command}")
endif()

# Run a command and pass only if it exits non-zero with output matching
# a regular expression: the contract for a rejected command-line input.
#
#   cmake -DCMD=<program;arg;...> -DEXPECT=<regex> -P expect_fail.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "expected a failure, got exit 0:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}${err}")
endif()

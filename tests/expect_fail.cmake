# Run a command and pass only if it exits non-zero (exactly STATUS, when
# given) with output matching a regular expression: the contract for a
# rejected command-line input.
#
#   cmake -DCMD=<program;arg;...> -DEXPECT=<regex> [-DSTATUS=<n>]
#         -P expect_fail.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "expected a failure, got exit 0:\n${out}${err}")
endif()
if(DEFINED STATUS AND NOT rc EQUAL STATUS)
    message(FATAL_ERROR "expected exit ${STATUS}, got ${rc}:\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}${err}")
endif()
